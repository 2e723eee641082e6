"""Dependability measures do not depend on ``PYTHONHASHSEED``.

String hashes are salted per process, so a measure that sums up-state
probabilities in set order can round differently from one process to
the next.  The models below (a CTMC and a semi-Markov process with
string labels, five up states listed out of index order) are evaluated
in subprocesses under different hash seeds, and every measure must come
back with the same ``float.hex``.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

SCRIPT = """
import json
import random

from repro.markov.ctmc import CTMC, MarkovDependabilityModel

rng = random.Random(7)
labels = [f"s{k}" for k in range(8)]
chain = CTMC()
for i, src in enumerate(labels):
    chain.add_transition(src, labels[(i + 1) % 8], rng.uniform(0.1, 5.0))
    for j in rng.sample(range(8), 3):
        if j != i:
            chain.add_transition(src, labels[j], rng.uniform(0.1, 5.0))
model = MarkovDependabilityModel(chain, ["s6", "s1", "s4", "s0", "s3"], "s0")
values = [model.steady_state_availability(), model.interval_availability(3.0)]
values += list(model.availability([0.5, 2.0])) + list(model.reliability([0.5, 2.0]))

from repro.markov import SemiMarkovDependabilityModel, SemiMarkovProcess
from repro.distributions import Exponential

smp = SemiMarkovProcess()
for i, src in enumerate(labels):
    targets = [labels[(i + 1) % 8]] + [labels[j] for j in rng.sample(range(8), 2) if j != i]
    targets = list(dict.fromkeys(targets))
    weights = [rng.uniform(0.1, 1.0) for _ in targets]
    for target, weight in zip(targets, weights):
        smp.add_transition(src, target, weight / sum(weights), Exponential(rng.uniform(0.1, 5.0)))
smp_model = SemiMarkovDependabilityModel(smp, ["s6", "s1", "s4", "s0", "s3"], "s0")
values += [smp_model.steady_state_availability()]
values += list(smp_model.availability([0.5, 2.0])) + list(smp_model.reliability([0.5, 2.0]))
print(json.dumps([float(v).hex() for v in values]))
"""


def run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_measures_identical_across_hash_seeds():
    outputs = {seed: run(seed) for seed in ("0", "1", "2", "3")}
    assert len(set(outputs.values())) == 1, outputs
