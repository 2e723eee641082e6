"""Dependability measures do not depend on ``PYTHONHASHSEED``.

String hashes are salted per process, so a measure that sums up-state
probabilities in set order can round differently from one process to
the next.  The model below (string labels, five up states listed out of
index order) is evaluated in subprocesses under different hash seeds,
and every measure must come back with the same ``float.hex``.
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
