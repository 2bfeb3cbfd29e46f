"""The three workloads: their seeded inputs, one timed operation, its check.

A workload turns the seed into inputs during set-up, then runs a fixed list
of operations per pass.  ``run`` times only the call into phforge;
``verify`` checks the output afterwards: exactly on the first pass, and on
later passes by comparing the output with the first pass byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import phforge
from phforge import Quaternion, QuaternionPolynomial, cli
from phforge.rationals import format_rational

import checks

# t^3 + (2j+k)t^2 - (1+2i)t - k, coefficients ascending as (w, x, y, z)
REFERENCE = ((0, 0, 0, -1), (-1, -2, 0, 0), (0, 0, 2, 1), (1, 0, 0, 0))

# q with entries in {-1, 0, 1} and one, two or four nonzero entries: these
# rotate the reference curve onto a signed permutation of its axes, so the
# hull outcome, kernel and slice are the same for every seed while the
# coefficients change.  (Three nonzero entries give a generic rotation whose
# larger coefficients make one (0,4)^8 synth about five times slower.)
ROTATIONS = tuple(
    q for q in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, q)) in (1, 2, 4)
)

SOLVED, UNSOLVED, MISSED, FAILED = "solved", "unsolved", "missed", "failed"


@dataclass(frozen=True)
class Fixture:
    name: str
    poles: tuple  # (b, c, multiplicity) per factor
    weights: tuple | None = None
    # True where an exact certificate is known to exist, so exit 3 is a
    # failure; None where it is not known, so exit 3 only means unsolved
    certificate_known: bool | None = True


FIXTURES = (
    Fixture("(0,4)^6", ((0, 4, 6),)),
    Fixture("(0,4)^8", ((0, 4, 8),)),
    Fixture("(0,4)^10", ((0, 4, 10),)),
    Fixture("(0,4)^6.(1,3)^4", ((0, 4, 6), (1, 3, 4))),
    Fixture("(0,4)^8.(1,3)^6", ((0, 4, 8), (1, 3, 6)), certificate_known=None),
    Fixture("(0,4)^6 weights 1,2,1", ((0, 4, 6),), weights=("1", "2", "1")),
)
SYNTH_SAMPLES = 256
EXPORTS = (
    ("sample", "json"),
    ("sample", "csv"),
    ("sample", "obj"),
    ("sample", "svg"),
    ("frames", "json"),
    ("frames", "csv"),
)


@dataclass
class Outcome:
    key: str
    seconds: float  # wall time of the call into phforge
    start: float = 0.0  # perf_counter() when the call started
    norm_s: float = 0.0  # ``seconds`` at the nominal host speed, see speed.py
    status: str = FAILED
    units: int = 0
    output_bytes: int = 0
    counts: dict = field(default_factory=dict)
    digest: str = ""
    note: str = ""
    payload: object = field(default=None, repr=False)  # raw output, kept until checked


def draw_rotation(seed: int) -> tuple:
    return random.Random(f"rotation:{seed}").choice(ROTATIONS)


def generator_rows(q: tuple) -> list[list[str]]:
    left = Quaternion.of(*q)
    rows = []
    for c in REFERENCE:
        p = left * Quaternion.of(*c)
        rows.append([format_rational(v) for v in (p.w, p.x, p.y, p.z)])
    return rows


def fixture_config(q: tuple, fixture: Fixture) -> dict:
    options = {"samples": SYNTH_SAMPLES, "seed": 0}
    if fixture.weights:
        options["weights"] = list(fixture.weights)
    return {
        "quaternion": generator_rows(q),
        "poles": [{"b": str(b), "c": str(c), "multiplicity": m} for b, c, m in fixture.poles],
        "options": options,
    }


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, start, time.perf_counter() - start


class Workload:
    name = ""
    keys: tuple = ()
    via_cli = True  # calls go through phforge.cli.main

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._first: dict[str, Outcome] = {}

    def setup(self, seed: int) -> bytes:
        """Build the inputs for ``seed``; returns them in canonical bytes."""
        raise NotImplementedError

    def run(self, key: str) -> Outcome:
        raise NotImplementedError

    def check(self, key: str, outcome: Outcome, payload) -> None:
        """Exact check of a first-pass outcome: sets status, counts, units."""
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        first = self._first.get(outcome.key)
        payload, outcome.payload = outcome.payload, None
        if first is None:
            self.check(outcome.key, outcome, payload)
            self._first[outcome.key] = outcome
            return
        if outcome.digest != first.digest:
            outcome.status = FAILED
            outcome.note = "output differs from the first pass"
            return
        outcome.status, outcome.units = first.status, first.units
        outcome.counts, outcome.note = first.counts, first.note


class SynthFixtures(Workload):
    """`phforge synth` on the ROADMAP fixtures, rotated by the seed's q."""

    name = "synth-fixtures"
    keys = tuple(f.name for f in FIXTURES)

    def setup(self, seed: int) -> bytes:
        self.q = draw_rotation(seed)
        configs = {}
        for fixture in FIXTURES:
            cfg = fixture_config(self.q, fixture)
            (self.workdir / f"{_slug(fixture.name)}.json").write_bytes(canonical(cfg))
            configs[fixture.name] = cfg
        return canonical(configs)

    def run(self, key: str) -> Outcome:
        config = self.workdir / f"{_slug(key)}.json"
        out = self.workdir / f"{_slug(key)}.bundle.json"
        out.unlink(missing_ok=True)
        code, start, seconds = _timed(cli.main, ["synth", "--config", str(config), "--out", str(out)])
        outcome = Outcome(key, seconds, start, note=f"exit {code}")
        outcome.counts["exit"] = code
        if code == 0:
            outcome.payload = out.read_bytes()
            outcome.output_bytes = len(outcome.payload)
            outcome.digest = hashlib.sha256(outcome.payload).hexdigest()
        else:
            outcome.digest = f"exit {code}"
        return outcome

    def check(self, key: str, outcome: Outcome, payload) -> None:
        fixture = next(f for f in FIXTURES if f.name == key)
        code = outcome.counts["exit"]
        if code == 3:
            outcome.status = MISSED if fixture.certificate_known else UNSOLVED
            return
        if code != 0:
            outcome.note += ": not a documented outcome for this fixture"
            return
        data = json.loads(payload)
        errors = checks.check_bundle(data)
        if errors:
            outcome.note += ": " + "; ".join(errors)
            return
        outcome.status, outcome.units = SOLVED, 1
        diagnostics = data["diagnostics"]
        outcome.counts.update(
            bundle_bytes=outcome.output_bytes,
            kernel_dim=diagnostics["kernel_dimension"],
            slice_dim=diagnostics["slice_dimension"],
            sdp_attempts=len(diagnostics["relaxation_log"]),
            coeff_bits=checks.coefficient_bits(
                [checks.parse_poly(p) for p in (*data["curve"]["numerators"], data["curve"]["denominator"])]
            ),
        )


@dataclass(frozen=True)
class ExactInput:
    problem: phforge.SynthesisProblem
    draws: tuple  # integer weights of the kernel basis, one per possible basis element


def _random_generator(rng: random.Random, degree: int) -> QuaternionPolynomial:
    while True:
        coeffs = [Quaternion.of(*(rng.randint(-2, 2) for _ in range(4))) for _ in range(degree + 1)]
        if not coeffs[-1]:
            continue
        reduced, _ = phforge.i_reduce(QuaternionPolynomial(coeffs))
        if reduced.degree == degree:
            return reduced


def _random_poles(rng: random.Random, total: int, factors: int) -> phforge.PoleStructure:
    if factors == 1:
        multiplicities = (total,)
    else:
        first = rng.randint(1, total - 1)
        multiplicities = (first, total - first)
    chosen: list[tuple[int, int]] = []
    while len(chosen) < factors:
        b = rng.randint(-2, 2)
        c = b * b // 4 + rng.randint(1, 4)  # 4c > b^2: no real roots
        if (b, c) not in chosen:
            chosen.append((b, c))
    return phforge.PoleStructure(
        tuple(phforge.QuadraticFactor(b, c, m) for (b, c), m in zip(chosen, multiplicities))
    )


def exact_inputs(seed: int) -> list[ExactInput]:
    """Three random problems per (deg A, total multiplicity, factor count) stratum.

    The strata cover the property-suite family (deg A <= 3, total
    multiplicity 4..8, one or two pole factors) and fix the batch's mix of
    problem sizes, so the seed changes the coefficients but not the mix.
    """
    rng = random.Random(f"exact-batch:{seed}")
    out = []
    for degree in (1, 2, 3):
        for total in range(max(4, degree + 2), 9):
            for factors in (1, 1, 1, 2, 2, 2):
                a = _random_generator(rng, degree)
                poles = _random_poles(rng, total, factors)
                m = 2 * (total - degree - 1)
                draws = tuple(rng.randint(-3, 3) for _ in range(m + 1))
                out.append(ExactInput(phforge.SynthesisProblem(a, poles), draws))
    return out


def _rats(poly) -> list[str]:
    return [format_rational(c) for c in poly.coeffs]


class ExactBatch(Workload):
    """Residue system, and for a non-empty kernel a curve and its closure point."""

    name = "exact-batch"
    via_cli = False

    def setup(self, seed: int) -> bytes:
        self.inputs = exact_inputs(seed)
        self.keys = tuple(f"problem {i}" for i in range(len(self.inputs)))
        return canonical(
            [
                {
                    "generator": [[format_rational(v) for v in (q.w, q.x, q.y, q.z)]
                                  for q in inp.problem.a_poly.coeffs],
                    "poles": [[format_rational(f.b), format_rational(f.c), f.multiplicity]
                              for f in inp.problem.poles.factors],
                    "draws": list(inp.draws),
                }
                for inp in self.inputs
            ]
        )

    def _solve(self, inp: ExactInput):
        space = phforge.build_residue_system(inp.problem)
        if space.dimension == 0:
            return space, None, None, None
        weights = list(inp.draws[: space.dimension])
        if not any(weights):
            weights[0] = 1
        mu = space.combination(weights)
        curve = phforge.synthesize_curve(inp.problem, mu)
        return space, mu, curve, phforge.closure_point(curve)

    def run(self, key: str) -> Outcome:
        inp = self.inputs[self.keys.index(key)]
        (space, mu, curve, closure), start, seconds = _timed(self._solve, inp)
        exact = {"basis": [_rats(b) for b in space.basis]}
        if curve is not None:
            exact.update(
                mu=_rats(mu),
                curve=[_rats(p) for p in (*curve.nums, curve.den)],
                closure=[format_rational(v) for v in closure],
            )
        blob = canonical(exact)
        return Outcome(
            key, seconds, start, output_bytes=len(blob), digest=hashlib.sha256(blob).hexdigest(),
            payload=(inp.problem, space, mu, curve),
        )

    def check(self, key: str, outcome: Outcome, payload) -> None:
        problem, space, mu, curve = payload
        outcome.counts.update(
            kernel_dim=space.dimension, residue_rows=len(space.constraint_matrix)
        )
        if curve is not None:
            errors = checks.check_exact_problem(problem, mu, curve)
            if errors:
                outcome.note = "; ".join(errors)
                return
            outcome.counts["coeff_bits"] = checks.coefficient_bits((*curve.nums, curve.den))
        outcome.status, outcome.units = SOLVED, 1


class Export(Workload):
    """`phforge sample` and `frames` at 2048 samples on a bundle set-up built."""

    name = "export"
    keys = tuple(f"{cmd} {fmt}" for cmd, fmt in EXPORTS)
    fixture = FIXTURES[0]

    def setup(self, seed: int) -> bytes:
        q = draw_rotation(seed)
        config = self.workdir / "export.json"
        config.write_bytes(canonical(fixture_config(q, self.fixture)))
        self.bundle = self.workdir / "export.bundle.json"
        code = cli.main(["synth", "--config", str(config), "--out", str(self.bundle)])
        if code != 0:
            raise RuntimeError(f"synth of the export bundle exited {code}")
        data = self.bundle.read_bytes()
        self.reference = checks.ExactReference(json.loads(data))
        return data

    def run(self, key: str) -> Outcome:
        command, fmt = key.split()
        out = self.workdir / f"export.{command}.{fmt}"
        out.unlink(missing_ok=True)
        argv = [command, "--config", str(self.bundle), "--samples", str(checks.EXPORT_SAMPLES),
                "--format", fmt, "--out", str(out)]
        code, start, seconds = _timed(cli.main, argv)
        outcome = Outcome(key, seconds, start, note=f"exit {code}")
        outcome.counts["exit"] = code
        if code == 0:
            data = out.read_bytes()
            outcome.output_bytes = len(data)
            outcome.digest = hashlib.sha256(data).hexdigest()
            outcome.payload = data.decode()
        return outcome

    def check(self, key: str, outcome: Outcome, payload) -> None:
        if outcome.counts["exit"] != 0:
            return
        command, fmt = key.split()
        errors = checks.check_export(self.reference, command, fmt, payload)
        if errors:
            outcome.note += ": " + "; ".join(errors[:3])
            return
        outcome.counts["output_bytes"] = outcome.output_bytes
        outcome.status, outcome.units = SOLVED, checks.EXPORT_SAMPLES


WORKLOADS = {w.name: w for w in (SynthFixtures, ExactBatch, Export)}
