"""Self-test of the benchmark: ``python3 servebench/selftest.py``.

Runs every workload briefly, untraced and traced, and checks that

* every metric named in ``BENCHMARK.json`` is printed with its unit,
  and the names and units agree with ``run.py``'s tables;
* every run is correct, with no failed operation;
* a server that corrupts some answers makes ``failed`` > 0 and
  ``correct`` false, on ``hot-hit`` (answers byte-compared with the
  oracle) and on ``sharded-write`` (where the corrupted text is valid
  under the view DTD, so only the read-your-own-writes check catches
  the timed reads);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def _run(args: list[str], cwd: str = ROOT) -> tuple[int, dict | None, str]:
    process = subprocess.run(
        [sys.executable, os.path.join("servebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return process.returncode, result, process.stderr


def _check(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def main() -> int:
    sys.path.insert(0, HERE)
    import run
    import federations

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    tables = {
        0: {name: unit for name, (unit, _) in run.END_TO_END.items()},
        1: {name: entry[0] for name, entry in run.PER_LAYER.items()},
    }
    for trace in (0, 1):
        _check(declared[trace] == tables[trace],
               f"BENCHMARK.json and run.py disagree on trace {trace} metrics",
               problems)
    workloads = [w["name"] for w in spec["workloads"]]
    _check(set(workloads) == set(federations.WORKLOADS),
           "BENCHMARK.json workloads differ from run.py's", problems)
    for workload in workloads:
        for trace in (0, 1):
            code, result, stderr = _run([
                "--workload", workload, "--seed", "1",
                "--seconds", SECONDS, "--trace", str(trace),
            ])
            label = f"{workload} trace {trace}"
            _check(code == 0 and result is not None,
                   f"{label}: exit {code}\n{stderr[-2000:]}", problems)
            if result is None:
                continue
            _check(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{label}: result keys {sorted(result)}", problems)
            _check(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: not correct: {stderr[-2000:]}", problems)
            printed = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            _check(printed == declared[trace],
                   f"{label}: printed metrics differ from BENCHMARK.json",
                   problems)
            print(f"ok   {label}: {result['attempted']} ops", flush=True)
    # On sharded-write the corrupted title text is DTD-valid: only the
    # read-your-own-writes check catches the timed reads.
    for workload in ("hot-hit", "sharded-write"):
        code, result, stderr = _run([
            "--workload", workload, "--seed", "1", "--seconds", SECONDS,
            "--trace", "0", "--corrupt-every", "7",
        ])
        _check(
            code == 0 and result is not None and not result["correct"]
            and result["failed"] > 0,
            f"{workload}: corrupted answers were not caught: {result}",
            problems,
        )
        if result is not None and result["failed"]:
            print(f"ok   {workload} corrupted answers: failed_frac "
                  f"{result['failed'] / result['attempted']:.4f}", flush=True)
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "servebench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, stderr = _run(
        ["--workload", "hot-hit", "--seed", "1", "--seconds", SECONDS,
         "--trace", "0"],
        cwd=bare,
    )
    shutil.rmtree(bare, ignore_errors=True)
    _check(code != 0 and result is None,
           f"without the program the benchmark must fail (exit {code})",
           problems)
    if code != 0 and result is None:
        print(f"ok   bare directory: exit {code}, no result", flush=True)
    print("selftest " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
