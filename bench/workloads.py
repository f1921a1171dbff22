"""Workload definitions and the seeded input generator.

Each workload is a fixed list of jobs. A job is one whole CLI command, or a
fixed pair of commands, together with what the checker expects of its
output. ``make_jobs(workload, seed, workdir)`` writes every file the program
reads (scenario documents, coefficient matrices) into ``workdir`` and
returns the job list; the same seed gives the same files and the same list.

Why each workload exists is stated in ``WHY`` and in the comments of the
function that builds its job list: every workload stresses a different set
of modules, so a change to one layer is exercised by one workload and
bypassed by another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WHY = {
    "verify": ("synthesize then verify: dense flatten plus check_saturation "
               "dominates; simulate and lm do no work"),
    "synthesize": ("qfi plus synthesize, no verification: qudit layouts reach "
                   "the recursive zero-diagonalizer, ghz9/ghz10 stress dense "
                   "family construction and qfi"),
    "estimate": ("simulate jobs: the scalar MLE likelihood loop dominates; "
                 "two-step runs re-synthesize many small trees"),
    "lm-search": ("lm-check jobs: the only workload that reaches lm and its "
                  "finite-difference least-squares search"),
}
WORKLOADS = tuple(WHY)


@dataclass
class Job:
    """One closed-loop request: CLI argv lists run in order, and its expectations.

    ``family`` names the reference family the checker rebuilds: a built-in
    name, a generated document path, or the pair of coefficient-matrix paths
    of an lm job. ``expect`` holds the verdicts and sizes the output must show.
    """

    label: str
    commands: list[list[str]]
    kind: str
    family: str | tuple[str, str] | None = None
    theta: float | None = None
    expect: dict = field(default_factory=dict)


def _pairs(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _ghz_doc(n: int) -> dict:
    # Same shape as the built-in GHZ documents, which stop at n = 8.
    psi_in = np.zeros(2 ** n, dtype=complex)
    psi_in[0] = psi_in[-1] = 1 / np.sqrt(2)
    terms = [{"coeff": 0.5, "string": "".join("Z" if i == j else "I" for i in range(n))}
             for j in range(n)]
    return {
        "name": f"ghz{n}",
        "type": "unitary-generator",
        "layout": [2] * n,
        "psi_in": _pairs(psi_in),
        "hamiltonian": {"pauli": terms},
        "theta_grid": {"start": 0.0, "stop": np.pi / 4, "points": 32},
        "notes": f"{n}-qubit GHZ phase estimation; qfi = n^2 at every theta",
    }


def _random_pure_doc(rng: np.random.Generator, dims: tuple[int, ...]) -> dict:
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return {
        "name": "random-pure-" + "x".join(map(str, dims)),
        "type": "unitary-generator",
        "layout": list(dims),
        "psi_in": _pairs(_unit(rng, d)),
        "hamiltonian": {"dense": _pairs((g + g.conj().T) / 2)},
        "theta_grid": {"start": 0.0, "stop": 1.0, "points": 16},
    }


def _random_ranktwo_doc(rng: np.random.Generator, dims: tuple[int, ...]):
    """A random rank-two document and a theta where p is inside (0, 1) and moves."""
    d = int(np.prod(dims))
    z = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    q, _ = np.linalg.qr(z)
    theta = float(rng.uniform(0.15, 0.85))
    if rng.random() < 0.5:
        p = {"form": "linear", "intercept": 0.0, "slope": 1.0}
    else:
        # the cosine argument at theta lies in [0.6, 2.5], where 0.18 < p < 0.83
        # and |dp/dtheta| >= 0.22 * frequency
        freq = float(rng.uniform(1.0, 3.0))
        arg = float(rng.uniform(0.6, 2.5))
        p = {"form": "cosine", "offset": 0.5, "amplitude": 0.4, "frequency": freq,
             "phase": float((arg - freq * theta) % (2 * np.pi))}
    doc = {
        "name": "random-ranktwo-" + "x".join(map(str, dims)),
        "type": "rank-two",
        "layout": list(dims),
        "psi0": _pairs(q[:, 0]),
        "psi1": _pairs(q[:, 1]),
        "p": p,
        "theta_grid": {"start": 0.1, "stop": 0.9, "points": 16},
    }
    return doc, theta


def _coeff_pair(rng: np.random.Generator, d1: int, d2: int):
    a = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    b = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
    a /= np.linalg.norm(a)
    b -= np.vdot(a, b) * a
    return a, b / np.linalg.norm(b)


def _rotated_lm3x3(rng: np.random.Generator):
    # Local-unitary image of the lm3x3 pair: local unitaries map product
    # measurements to product measurements, so the verdicts of lm3x3 carry
    # over (no projective solution, a padded one exists).
    s2 = np.sqrt(2)
    a = np.diag([s2 / 2, 0.5, 0.5]).astype(complex)
    b = np.diag([s2 * 1j / 2, -1j / 2, -1j / 2])

    def haar():
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, v = haar(), haar()
    return u @ a @ v.T, u @ b @ v.T


def _verify_jobs(rng, workdir: Path) -> list[Job]:
    # Time to a verified protocol. The O(D^4) flatten + check_saturation path
    # dominates (ghz7 alone is about a third of the pass); ghz6/ghz7 at theta = 0.3
    # are also the points of the baseline cross-check.
    jobs: list[Job] = []

    def pair(label, scenario, theta, tree_from=None, **expect):
        tree = str(workdir / f"tree-{len(jobs)}.json")
        synth = tree_from or scenario
        jobs.append(Job(label=label, kind="verify", family=scenario,
                        theta=theta, expect=expect, commands=[
                            ["synthesize", synth, "--theta", repr(theta), "--out", tree],
                            ["verify", scenario, "--tree", tree, "--theta", repr(theta)]]))

    # The thetas per scenario are chosen so that the median job falls in the
    # middle of the ghz4/chain4/small-qudit group and the 90th percentile in
    # the middle of the D = 81 group, where neighbouring jobs cost the same.
    for n, thetas in ((2, (0.1, 0.2, 0.3, 0.5, 0.6, 0.7)), (3, (0.1, 0.2, 0.3, 0.5, 0.6, 0.7)),
                      (4, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)), (5, (0.1, 0.3, 0.5, 0.7))):
        for theta in thetas:
            pair(f"ghz{n}@{theta}", f"ghz{n}", theta, saturating=True, ghz=n)
    for theta in (0.3, 0.6):
        pair(f"ghz6@{theta}", "ghz6", theta, saturating=True, ghz=6)
    pair("ghz7@0.3", "ghz7", 0.3, saturating=True, ghz=7)
    for theta in (0.2, 0.4, 0.6, 0.8):
        pair(f"chain4@{theta}", "chain4", theta, saturating=True)
    for theta in (0.2, 0.4, 0.6):
        pair(f"ranktwo@{theta}", "ranktwo", theta, saturating=True)
    for theta in (0.3, 0.6):
        # negative control: the ranktwo tree must not saturate the Bell mixture
        pair(f"bellmix@{theta}", "bellmix", theta, tree_from="ranktwo",
             saturating=False)
    for dims in ((2, 3), (3, 3), (2, 2, 3), (3, 4), (3, 3, 3), (3, 3, 3, 3), (9, 9), (3, 3, 9)):
        tag = "x".join(map(str, dims))
        doc = _random_pure_doc(rng, dims)
        path = _write(workdir / f"pure-{tag}.json", doc)
        pair(f"pure-{tag}", path, float(rng.uniform(0.05, 1.0)), saturating=True)
        doc, theta = _random_ranktwo_doc(rng, dims)
        path = _write(workdir / f"ranktwo-{tag}.json", doc)
        pair(f"ranktwo-{tag}", path, theta, saturating=True)
    return jobs


def _synthesize_jobs(rng, workdir: Path) -> list[Job]:
    # qfi + synthesize with no flatten or check, so a verify-only change is
    # predicted flat here. Qudit layouts are the only inputs that reach the
    # recursive find_null_vector path (qubits use the closed-form solve_2x2);
    # ghz9/ghz10 put dense family construction and qfi on the top of the pass.
    jobs: list[Job] = []

    def pair(label, scenario, theta, **expect):
        tree = str(workdir / f"tree-{len(jobs)}.json")
        jobs.append(Job(label=label, kind="synthesize", family=scenario, theta=theta,
                        expect=expect, commands=[
                            ["qfi", scenario, "--theta", repr(theta)],
                            ["synthesize", scenario, "--theta", repr(theta), "--out", tree]]))

    for theta in np.linspace(0.0, np.pi / 4, 32):
        # the export-bloch grid of chain4
        pair(f"chain4@{theta:.4f}", "chain4", float(theta))
    for dims in ((3, 3, 3), (3, 4), (5, 5), (3, 3, 3, 3)):
        tag = "x".join(map(str, dims))
        for k in range(2):
            doc = _random_pure_doc(rng, dims)
            path = _write(workdir / f"pure-{tag}-{k}.json", doc)
            pair(f"pure-{tag}-{k}", path, float(rng.uniform(0.05, 1.0)))
            doc, theta = _random_ranktwo_doc(rng, dims)
            path = _write(workdir / f"ranktwo-{tag}-{k}.json", doc)
            pair(f"ranktwo-{tag}-{k}", path, theta)
    for theta in (0.1, 0.16, 0.22, 0.28, 0.34, 0.4, 0.46, 0.52, 0.58, 0.64):
        # a fixed-cost group whose middle holds the 90th percentile of the job times
        pair(f"ghz7@{theta}", "ghz7", theta, ghz=7)
    for n in (9, 10):
        path = _write(workdir / f"ghz{n}.json", _ghz_doc(n))
        pair(f"ghz{n}@0.3", path, 0.3, ghz=n)
    return jobs


def _estimate_jobs(rng, workdir: Path) -> list[Job]:
    # Monte-Carlo MLE. Per-job cost is set by shots, trials and the fixed
    # 512-point grid, not by the drawn counts, so the seed moves the data and
    # not the work. The two-step runs re-synthesize a tree in every trial.
    jobs: list[Job] = []

    def sim(label, scenario, theta, shots, trials, two_step=False):
        argv = ["simulate", scenario, "--theta", repr(theta), "--shots", str(shots),
                "--trials", str(trials), "--seed", str(int(rng.integers(2 ** 31)))]
        if two_step:
            argv.append("--two-step")
        jobs.append(Job(label=label, kind="estimate", family=scenario, theta=theta,
                        expect={"shots": shots, "trials": trials}, commands=[argv]))

    for k in range(8):
        sim(f"ranktwo-fixed-{k}", "ranktwo", float(rng.uniform(0.3, 0.7)), 100000, 5)
    for k in range(18):
        sim(f"ghz3-fixed-{k}", "ghz3", float(rng.uniform(0.25, 0.55)), 100000, 5)
    for k in range(12):
        sim(f"ghz4-fixed-{k}", "ghz4", float(rng.uniform(0.3, 0.5)), 10000, 5)
    for k in range(12):
        sim(f"ghz3-two-step-{k}", "ghz3", float(rng.uniform(0.25, 0.55)), 10000, 5,
            two_step=True)
    # the acceptance-suite scale: 10^5 shots, 100 trials
    sim("ghz3-fixed-100", "ghz3", float(rng.uniform(0.25, 0.55)), 100000, 100)
    return jobs


def _lm_jobs(rng, workdir: Path) -> list[Job]:
    # lm-check. The infeasible projective searches run every restart to
    # max_nfev: a fixed amount of wasted work that dominates the pass. The
    # qubit-side construction and the padded lm3x3 search are the feasible
    # cases. Generic random 3x3 pairs are left out: their searches succeed
    # after anywhere from 40 to 300 function evaluations, so the pass time
    # would follow the seed rather than the code.
    jobs: list[Job] = []

    def check(label, argv, family, **expect):
        jobs.append(Job(label=label, kind="lm-search", family=family, theta=0.0,
                        expect=expect, commands=[["lm-check", *argv]]))

    def coeff_files(tag, a, b):
        pa = _write(workdir / f"a-{tag}.json", _pairs(a))
        pb = _write(workdir / f"b-{tag}.json", _pairs(b))
        return ["--a-mat", pa, "--b-mat", pb], (pa, pb)

    check("lm2x2", ["lm2x2"], "lm2x2", feasible=True)
    check("lm3x3-padded", ["lm3x3"], "lm3x3", feasible=True)
    check("lm3x3-projective", ["lm3x3", "--projective-only", "--restarts", "1"],
          "lm3x3", feasible=False)
    for k in range(5):
        argv, fam = coeff_files(f"rot3x3-{k}", *_rotated_lm3x3(rng))
        check(f"rotated-lm3x3-projective-{k}",
              argv + ["--projective-only", "--restarts", "1"], fam, feasible=False)
    # Random 2 x d pairs stop at d = 3. From d = 4 on, some pairs make lm-check
    # fail (1 in 4000 at d = 4, 1 in 1000 at d = 5, more at d >= 6): a
    # "feasible" verdict that check_saturation rejects, or, from d = 6, an exit
    # from the zero-diagonalizer's relative residual test. bench/RESULTS.md
    # has the details. No failure was seen in 10^4 pairs at each of d = 2, 3.
    # The larger d = 3 group puts the median job in the middle of one cost group.
    for k, d2 in enumerate((2,) * 11 + (3,) * 32):
        argv, fam = coeff_files(f"2x{d2}-{k}", *_coeff_pair(rng, 2, d2))
        check(f"random-2x{d2}-{k}", argv, fam)
    return jobs


_JOB_LISTS = {
    "verify": _verify_jobs,
    "synthesize": _synthesize_jobs,
    "estimate": _estimate_jobs,
    "lm-search": _lm_jobs,
}

# Small jobs run once, untimed, before measuring, so lazy imports and first-call
# set-up inside numpy/scipy do not land in the first timed job.
WARMUP = {
    "verify": [["synthesize", "ghz2", "--theta", "0.3", "--out", "{w}/warm.json"],
               ["verify", "ghz2", "--tree", "{w}/warm.json", "--theta", "0.3"]],
    "synthesize": [["qfi", "ghz3", "--theta", "0.3"],
                   ["synthesize", "lm3x3", "--theta", "0.3", "--out", "{w}/warm.json"]],
    "estimate": [["simulate", "ghz2", "--shots", "1000", "--trials", "2"],
                 ["simulate", "ghz2", "--shots", "1000", "--trials", "2", "--two-step"]],
    "lm-search": [["lm-check", "lm2x2"],
                  ["lm-check", "lm2x2", "--projective-only", "--restarts", "1"]],
}


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _JOB_LISTS[workload](rng, workdir)
    # On a shared host the speed of the same code can swing by 2x within
    # seconds. Jobs of one group run spread over the whole pass, not as one
    # block of a few hundred milliseconds, so each percentile averages over it.
    order = np.random.default_rng([seed, WORKLOADS.index(workload), 1]).permutation(len(jobs))
    return [jobs[i] for i in order]


def warmup_commands(workload: str, workdir: Path) -> list[list[str]]:
    return [[tok.replace("{w}", str(workdir)) for tok in argv]
            for argv in WARMUP[workload]]
