"""Differential test: compiled vs uncompiled CTMCs on generated chains.

Fifty small chains (2–12 states) are generated from fixed seeds with the
stdlib ``random`` module.  Each mixes every rate-term kind and repeats
some ``(i, j)`` pairs after other transitions of the same row, so the
compiled chain must fold duplicates exactly as repeated
``CTMC.add_transition`` calls accumulate them.  Every comparison is
bitwise: the generator's ``data``/``indices``/``indptr`` bytes, the
stationary vector from GTH (the compiled kernel) and from sparse-direct
and power iteration on the filled generator, and the transient
probabilities.
"""

import random
import struct

import numpy as np
import pytest

from repro.compile import CompiledCTMC
from repro.compile.ctmc import Complement, Const, Param, Scaled, Times
from repro.markov.ctmc import CTMC
from repro.markov.solvers import solve_transient, steady_state_direct, steady_state_power

SEEDS = range(50)
PARAMS = ("lam", "mu", "nu")
TIMES = np.array([0.0, 0.5, 2.0])


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def random_term(rng: random.Random):
    kind = rng.choice(("param", "scaled", "times", "complement", "const"))
    if kind == "param":
        return Param(rng.choice(PARAMS))
    if kind == "scaled":
        return Scaled(rng.choice((0.5, 2.0, 3.0)), rng.choice(PARAMS))
    if kind == "times":
        return Times(Param(rng.choice(PARAMS)), Param("c"))
    if kind == "complement":
        return Times(Param(rng.choice(PARAMS)), Complement(Param("c")))
    return Const(round(rng.uniform(0.1, 3.0), 3))


def generate(seed: int):
    """One irreducible chain: labels, transitions and a parameter point."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    labels = [f"s{seed}_{k}" for k in range(n)]
    transitions = []
    for i in range(n):
        targets = {(i + 1) % n}  # the cycle keeps the chain irreducible
        targets.update(rng.sample(range(n), rng.randint(0, min(3, n - 1))))
        targets.discard(i)
        transitions.extend((i, j, random_term(rng)) for j in sorted(targets))
    rng.shuffle(transitions)
    # Repeat pairs after other transitions of the same row.
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(len(transitions))
        i, j, _ = transitions[k]
        later = [m for m in range(k + 1, len(transitions)) if transitions[m][0] == i]
        at = (later[-1] if later else k) + 1
        transitions.insert(at, (i, j, random_term(rng)))
    values = {name: rng.uniform(0.1, 5.0) for name in PARAMS}
    values["c"] = rng.uniform(0.05, 0.95)
    return labels, transitions, values


def compiled_steady_state(compiled: CompiledCTMC, values, method: str):
    """GTH is the compiled chain's own kernel; the sparse methods run on
    its filled generator."""
    if method == "gth":
        return compiled.steady_state(values)
    kernel = steady_state_direct if method == "direct" else steady_state_power
    return kernel(compiled.generator(values), validated=True)


def uncompiled(labels, transitions, values) -> CTMC:
    chain = CTMC(labels)
    for i, j, term in transitions:
        chain.add_transition(labels[i], labels[j], term(values))
    return chain


def has_interleaved_duplicate(transitions) -> bool:
    seen = {}
    for k, (i, j, _) in enumerate(transitions):
        first = seen.setdefault((i, j), k)
        if first != k and any(
            r == i and (r, c) != (i, j) for r, c, _ in transitions[first + 1 : k]
        ):
            return True
    return False


def test_generator_covers_interleaved_duplicates():
    chains = [generate(seed) for seed in SEEDS]
    sizes = {len(labels) for labels, _, _ in chains}
    assert min(sizes) == 2 and max(sizes) == 12
    assert sum(has_interleaved_duplicate(t) for _, t, _ in chains) >= 25


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_bytes_match(seed):
    labels, transitions, values = generate(seed)
    q = CompiledCTMC(labels, transitions).generator(values)
    ref = uncompiled(labels, transitions, values).generator()
    assert q.data.tobytes() == ref.data.tobytes()
    assert q.indices.tobytes() == ref.indices.tobytes()
    assert q.indptr.tobytes() == ref.indptr.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", ["gth", "direct", "power"])
def test_steady_state_bits_match(seed, method):
    labels, transitions, values = generate(seed)
    pi = compiled_steady_state(CompiledCTMC(labels, transitions), values, method)
    ref = uncompiled(labels, transitions, values).steady_state(method=method)
    assert [bits(p) for p in pi] == [bits(ref[label]) for label in labels]


@pytest.mark.parametrize("seed", SEEDS)
def test_transient_bits_match(seed):
    labels, transitions, values = generate(seed)
    got = CompiledCTMC(labels, transitions).transient(values, TIMES, initial=labels[0])
    chain = uncompiled(labels, transitions, values)
    p0 = np.zeros(len(labels))
    p0[0] = 1.0
    ref = solve_transient(chain.generator(), p0, TIMES)
    assert got.tobytes() == ref.tobytes()
