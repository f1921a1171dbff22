"""Run every benchmark job against two source trees and compare the outputs.

Usage (from the repository root):

    python3 tools/compare_jobs.py BASE CHANGE [--seeds 1 2 3] [--workloads verify ...]

BASE and CHANGE are checkouts that each hold ``src/loccfisher`` (for example
the parent commit unpacked with ``git archive`` into a temporary directory, and
this repository). For each workload and seed, ``make_jobs`` from this
repository's ``bench/workloads.py`` writes the job inputs into a temporary
directory; the file is compiled from its source, so nothing is written
under ``bench/``. Every command of every job then runs once per tree, in
process through ``cli_main``, each tree in its own child interpreter with one
BLAS thread.

Per workload the report gives the exit-code and verdict mismatches, how many
outputs of succeeding commands are byte-identical and, per numeric JSON
field, the largest relative difference (absolute, on the
verdict scale, for residuals). The file a command writes with ``--out`` (a
tree document, or an ``lm-check`` report with U and V) is compared too, and
the report counts how many of those files are byte-identical and how many
parse to equal (``==``) JSON values, which differ in whitespace at most, and
names every output and file that is not byte-identical. A mismatch is:

- a different exit code, or a different error kind on a failing command;
- a different boolean, string or integer (verdicts, ``leaves``, degenerate
  trials, boundary hits, ...);
- a residual whose difference exceeds RESIDUAL_ABS * max(1, qfi of the report);
- a number in an ``--out`` file whose absolute difference exceeds OUT_ABS
  (their entries are components of unit vectors, where a relative
  difference means nothing near 0);
- any other number whose relative difference exceeds NUMBER_REL.

An ``lm-check`` report is compared by verdict: many pairs (U, V) meet the
conditions, so a different pair is not a wrong one. Each side's U and V are
checked with this repository's ``check_lm_conditions`` on the job's
coefficients (as that side's CLI read them), and a pair whose check differs
from the ``feasible``/``projective`` its report states is a mismatch. The
coefficients, ``feasible``, ``projective``, ``method``, ``restarts`` and
``note`` are compared as above; the entries of U and V and the residuals
are information: the report counts the reports whose U or V differ and
notes the largest differences.

The exit status is 1 if any workload shows a mismatch, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "bench" / "workloads.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMBER_REL = 1e-9       # qfi, fi, J, theta, variance, ratio, ci95, U, V, ...
RESIDUAL_ABS = 1e-12    # residual fields, times max(1, the report's qfi)
OUT_ABS = 1e-9          # every number of an --out file, absolute
PLACEHOLDER = "{workdir}"
LM_INFO = ("U", "V", "phase_residual", "support_residual")   # lm-check: information only


def load_workloads() -> types.ModuleType:
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS_PY)
    sys.modules["workloads"] = module       # dataclasses look their module up here
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


def run_child(src: str, workload: str, seed: int) -> list[dict]:
    """Every command of the workload's jobs at ``seed``, run against ``src``."""
    sys.path.insert(0, src)
    from loccfisher import cli
    from loccfisher.cli import cli_main
    from loccfisher.tensor import complex_to_pairs

    workloads = load_workloads()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for job in workloads.make_jobs(workload, seed, Path(tmp)):
            runs = []
            for argv in job.commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(argv)
                runs.append({"argv": [a.replace(tmp, PLACEHOLDER) for a in argv],
                             "code": code,
                             "stdout": out.getvalue().replace(tmp, PLACEHOLDER),
                             "stderr": err.getvalue().replace(tmp, PLACEHOLDER)})
                if code == 0 and "--out" in argv:
                    runs[-1]["out_file"] = Path(argv[argv.index("--out") + 1]).read_text()
                if code == 0 and argv[0] == "lm-check":
                    coeffs = cli._coeffs_from_args(cli.build_parser().parse_args(argv))
                    runs[-1]["coeffs"] = [complex_to_pairs(coeffs.a_mat),
                                          complex_to_pairs(coeffs.b_mat)]
                if code != 0:
                    break
            results.append({"label": job.label, "runs": runs})
    return results


def _spawn(tree: Path, workload: str, seed: int) -> subprocess.Popen:
    env = {**os.environ, **{v: "1" for v in THREAD_VARS}, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(tree / "src"),
         "--workloads", workload, "--seeds", str(seed)],
        stdout=subprocess.PIPE, text=True, env=env)


def _error_kind(text: str):
    try:
        return json.loads(text).get("kind")
    except (json.JSONDecodeError, AttributeError):
        return text.strip()[-200:]


def _document(text: str):
    """The JSON document of an output; CSV (export-bloch) and empty output stay text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


class Comparison:
    """Mismatches and per-field largest differences of one workload."""

    def __init__(self):
        self.exit_mismatches: list[str] = []
        self.verdict_mismatches: list[str] = []
        self.number_mismatches: list[str] = []
        self.largest: dict[str, float] = {}
        self.outputs = self.outputs_identical = 0
        self.out_files = self.out_identical = self.out_equal = 0
        self.lm_reports = 0
        self.differing: list[str] = []      # outputs that are not byte-identical
        self.lm_differ = {"U": 0, "V": 0}

    @property
    def ok(self) -> bool:
        return not (self.exit_mismatches or self.verdict_mismatches or self.number_mismatches)

    def _note(self, field: str, diff: float) -> None:
        self.largest[field] = max(self.largest.get(field, 0.0), diff)

    def values(self, where: str, field: str, a, b, qfi_scale: float,
               out_file: bool = False) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.verdict_mismatches.append(f"{where}: keys {sorted(a)} vs {sorted(b)}")
                return
            for key in a:
                self.values(where, key, a[key], b[key], qfi_scale, out_file)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.verdict_mismatches.append(f"{where}: {field} lengths {len(a)} vs {len(b)}")
                return
            for x, y in zip(a, b):
                self.values(where, field, x, y, qfi_scale, out_file)
        elif (isinstance(a, (bool, str)) or a is None or isinstance(b, (bool, str)) or b is None
              or (isinstance(a, int) and isinstance(b, int))):
            if a != b:
                self.verdict_mismatches.append(f"{where}: {field} {a!r} vs {b!r}")
        elif "residual" in field:
            diff = abs(a - b) / qfi_scale
            self._note(f"{field} (abs / max(1, qfi))", diff)
            if diff > RESIDUAL_ABS:
                self.number_mismatches.append(f"{where}: {field} {a!r} vs {b!r}")
        elif out_file:
            diff = abs(a - b)
            self._note(f"--out {field or '(value)'} (abs)", diff)
            if diff > OUT_ABS:
                self.number_mismatches.append(f"{where} --out: {field} {a!r} vs {b!r}")
        else:
            diff = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            self._note(field, diff)
            if diff > NUMBER_REL:
                self.number_mismatches.append(f"{where}: {field} {a!r} vs {b!r}")

    def lm_report(self, where: str, docs: tuple, coeffs: tuple) -> None:
        """Compare two lm-check reports by verdict; see the module docstring."""
        from loccfisher.lm import BipartiteCoeffs, IsometryPair, check_lm_conditions
        from loccfisher.tensor import pairs_to_complex

        if not all(isinstance(doc, dict) and set(LM_INFO) <= doc.keys() for doc in docs):
            self.values(where, "", *docs, 1.0)
            return
        self.lm_reports += 1
        for side, doc, pairs in zip(("base", "change"), docs, coeffs):
            try:
                got = check_lm_conditions(
                    IsometryPair(pairs_to_complex(doc["U"]), pairs_to_complex(doc["V"])),
                    BipartiteCoeffs(*map(pairs_to_complex, pairs)))
                checked = (got.feasible, got.projective)
            except ValueError as exc:
                checked = f"invalid pair ({exc})"
            if checked != (doc.get("feasible"), doc.get("projective")):
                self.verdict_mismatches.append(
                    f"{where}: {side} pair checks as (feasible, projective) {checked}, "
                    f"reports ({doc.get('feasible')}, {doc.get('projective')})")
        rest = [{k: v for k, v in doc.items() if k not in LM_INFO} for doc in docs]
        self.values(where, "", *rest, 1.0)
        self.values(where, "coefficients", *coeffs, 1.0)
        for key in LM_INFO:
            a, b = (np.asarray(doc[key], dtype=float) for doc in docs)
            if key in self.lm_differ:
                self.lm_differ[key] += not np.array_equal(a, b)
            if a.shape == b.shape:
                diff = float(np.abs(a - b).max(initial=0.0))
                self._note(f"lm-check {key} (abs, information)", diff)

    def jobs(self, base: list[dict], change: list[dict]) -> None:
        for jb, jc in zip(base, change):
            for rb, rc in zip(jb["runs"], jc["runs"]):
                where = f"{jb['label']} {rb['argv'][0]}"
                if rb["code"] != rc["code"]:
                    self.exit_mismatches.append(f"{where}: exit {rb['code']} vs {rc['code']}")
                    break
                if rb["code"] != 0:
                    kb, kc = _error_kind(rb["stderr"]), _error_kind(rc["stderr"])
                    if kb != kc:
                        self.exit_mismatches.append(f"{where}: error {kb!r} vs {kc!r}")
                    continue
                self.outputs += 1
                self.outputs_identical += rb["stdout"] == rc["stdout"]
                if rb["stdout"] != rc["stdout"]:
                    self.differing.append(where)
                db, dc = _document(rb["stdout"]), _document(rc["stdout"])
                scale = max(1.0, abs(db.get("qfi", 0.0)) if isinstance(db, dict) else 1.0)
                lm_check = rb["argv"][0] == "lm-check"
                if lm_check and db:
                    self.lm_report(where, (db, dc), (rb["coeffs"], rc["coeffs"]))
                else:
                    self.values(where, "", db, dc, scale)
                if "out_file" in rb:
                    self.out_files += 1
                    self.out_identical += rb["out_file"] == rc["out_file"]
                    if rb["out_file"] != rc["out_file"]:
                        self.differing.append(f"{where} --out")
                    ob, oc = _document(rb["out_file"]), _document(rc["out_file"])
                    self.out_equal += ob == oc
                    if lm_check:
                        self.lm_report(where + " --out", (ob, oc), (rb["coeffs"], rc["coeffs"]))
                    else:
                        self.values(where, "", ob, oc, 1.0, out_file=True)
            if len(jb["runs"]) != len(jc["runs"]):
                self.exit_mismatches.append(f"{jb['label']}: {len(jb['runs'])} vs "
                                            f"{len(jc['runs'])} commands ran")

    def report(self, title: str, jobs: int) -> str:
        lines = [f"{title}: {jobs} jobs, {len(self.exit_mismatches)} exit-code, "
                 f"{len(self.verdict_mismatches)} verdict and "
                 f"{len(self.number_mismatches)} numeric mismatches; "
                 f"{self.outputs_identical} of {self.outputs} outputs byte-identical; "
                 f"{self.out_identical} of {self.out_files} --out files byte-identical, "
                 f"{self.out_equal} parse-equal"]
        if self.lm_reports:
            lines.append(f"  lm-check reports compared by verdict: {self.lm_reports}; U differs "
                         f"in {self.lm_differ['U']}, V in {self.lm_differ['V']} (information)")
        if self.differing:
            lines.append("  not byte-identical: " + ", ".join(self.differing))
        for msg in (self.exit_mismatches + self.verdict_mismatches
                    + self.number_mismatches)[:10]:
            lines.append(f"  MISMATCH {msg}")
        for field, diff in sorted(self.largest.items()):
            lines.append(f"  {field or '(value)':<40} largest difference {diff:.3e}")
        return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(args.child, args.workloads[0], args.seeds[0])))
        return 0
    if not (args.base and args.change):
        parser.error("give the BASE and CHANGE source trees")
    sys.path.insert(0, str(ROOT / "src"))       # the lm-check pair checker
    trees = [Path(args.base).resolve(), Path(args.change).resolve()]
    for tree in trees:
        if not (tree / "src" / "loccfisher" / "__init__.py").is_file():
            parser.error(f"no src/loccfisher under {tree}")
    names = args.workloads or list(load_workloads().WORKLOADS)

    status = 0
    for name in names:
        for seed in args.seeds:
            # the two trees run side by side, one child each
            procs = [_spawn(tree, name, seed) for tree in trees]
            outs = [proc.communicate()[0] for proc in procs]
            if any(proc.returncode != 0 for proc in procs):
                print(f"{name} seed {seed}: a child run failed")
                status = 1
                continue
            base, change = (json.loads(out) for out in outs)
            comparison = Comparison()
            comparison.jobs(base, change)
            print(comparison.report(f"{name} seed {seed}", len(base)), flush=True)
            status |= not comparison.ok
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
