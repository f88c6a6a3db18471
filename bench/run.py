"""soapcert benchmark: drives the CLI in process through ``soapcert.cli.run``.

    python3 bench/run.py --workload {search,ingest,apex} --seed N \\
        --seconds S --trace {0,1}

One process is one closed-loop client: it sends each command only after
the previous one has returned, with BLAS thread pools capped at 1.  Set-up
runs ``bench/workloads.py`` in a fresh interpreter, which imports soapcert
and writes the seeded graph files; it is repeated and its median is
``setup_s``.  The run then repeats passes through the workload's command
list until ``--seconds`` have gone by, checking every output.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
the line before it is the full record (per-command times with their tail
percentile and sample count, failures and run metadata), also written to
``.bench_work/``.  With ``--trace 1`` half the time runs untraced and half
traced, and the last line carries the per-layer metrics, including the
tracing overhead; the spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

BLAS_CAP = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# End-to-end metrics printed on the last line: name -> unit.
END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import soapcert from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import soapcert.cli

    if src.resolve() not in Path(soapcert.cli.__file__).resolve().parents:
        raise ImportError(f"soapcert was imported from {soapcert.cli.__file__},"
                          f" not from {src}")
    return soapcert.cli


def set_up(workload: str, seed: int, size: str, out: Path) -> tuple[dict, float]:
    """Write the workload's graph files SETUP_REPEATS times, each time in a
    fresh interpreter; return the manifest and the median wall time.  It is
    not corrected for host speed, because the host clock's samples cannot
    run inside the child process."""
    env = dict(os.environ, **BLAS_CAP)
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "workloads.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--size", size, "--out", str(out)],
                       env=env, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return manifest, statistics.median(times)


def _op(command: dict, graph: dict) -> dict:
    """Operation record for the tracer, with the closed forms the accuracy
    metrics compare against."""
    op = {"kind": command["kind"], "graph": command["graph"],
          "model": graph["model"], "samples": graph["samples"]}
    expect = command["expect"]
    if command["graph"].startswith("circle") and "tc" in expect:
        op["tc_exact"] = expect["tc"]
    if "area" in expect:
        op["area_exact"] = expect["area"]
    return op


class Runner:
    """Runs passes over one manifest's commands and keeps their outcomes."""

    def __init__(self, cli, manifest: dict, check, clock):
        self.cli = cli
        self.manifest = manifest
        self.check = check
        self.clock = clock
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.pass_s = []
        self.pass_wall_s = []
        # per command of the list: its times, corrected and raw, one a pass
        self.command_s = [[] for _ in manifest["commands"]]
        self.command_wall_s = [[] for _ in manifest["commands"]]
        # per command kind (tc, cone, certify_strict, ...): time per pass,
        # and time per call
        kinds = sorted({c["kind"] for c in manifest["commands"]})
        self.kind_s = {k: [] for k in kinds}
        self.latency_s = {k: [] for k in kinds}
        self.samples_per_s = []

    def run_pass(self, tracer=None) -> float:
        """One pass through the command list; returns the time spent in the
        program at the host's nominal speed.  The client's own checking is
        not part of it."""
        kind_s = dict.fromkeys(self.kind_s, 0.0)
        samples = 0
        wall = 0.0
        if tracer is not None:
            tracer.begin_pass()
        for index, command in enumerate(self.manifest["commands"]):
            graph = self.manifest["graphs"][command["graph"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                op = _op(command, graph) if tracer else None
                code, elapsed_wall, elapsed = self.clock.run(
                    self._invoke, command["argv"], op, tracer)
            wall += elapsed_wall
            self.command_wall_s[index].append(elapsed_wall)
            self.command_s[index].append(elapsed)
            kind_s[command["kind"]] += elapsed
            self.latency_s[command["kind"]].append(elapsed)
            samples += graph["samples"]
            self._record(index, command, code, out.getvalue(), err.getvalue())
        if tracer is not None:
            tracer.end_pass()
        total = sum(kind_s.values())
        self.pass_s.append(total)
        self.pass_wall_s.append(wall)
        self.samples_per_s.append(samples / total)
        for kind, value in kind_s.items():
            self.kind_s[kind].append(value)
        return total

    def _invoke(self, argv: list[str], op: dict | None, tracer) -> int:
        try:
            if tracer is None:
                return self.cli.run(argv)
            return tracer.call(op, self.cli.run, argv)
        except Exception:  # the CLI would exit 1 with a traceback
            traceback.print_exc()
            return 1

    def _record(self, index: int, command: dict, code: int, stdout: str,
                stderr: str):
        self.attempted += 1
        failures = []
        if code != 0:
            failures.append(f"exit code {code}: {stderr.strip()[-300:]}")
        else:
            failures += self.check(command, stdout)
        # repeats of a command must give byte-identical stdout and files
        digest = hashlib.sha256(stdout.encode())
        if command["out_file"]:
            with contextlib.suppress(OSError):
                digest.update(Path(command["out_file"]).read_bytes())
        previous = self.digests.setdefault(index, digest.hexdigest())
        if previous != digest.hexdigest():
            failures.append("output differs from the first pass")
        if failures:
            self.failures.append({"command": " ".join(command["argv"]),
                                  "failures": failures})


def _repeat(runner: Runner, seconds: float, tracer=None) -> list[float]:
    """Passes until ``seconds`` have gone by; at least one."""
    times = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        times.append(runner.run_pass(tracer))
    return times


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (when there is one) and the sample count."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            rank = min(len(ordered) - 1, int(pct / 100 * len(ordered)))
            out[f"p{pct}"] = ordered[rank]
            break
    return out


def _git_sha() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(manifest: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_CAP, "workload_seed": manifest["seed"],
        "size": manifest["size"],
        "commands_per_pass": len(manifest["commands"]),
        "graphs": {key: {k: g[k] for k in ("model", "edges", "samples")}
                   for key, g in manifest["graphs"].items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", corrupt=None) -> tuple[dict, dict]:
    """Set up, measure and check one workload.  Returns the result (the
    last line's object) and the full record.  ``corrupt``, when given,
    edits the manifest before the passes; the smoke test uses it to show
    that a wrong reference value fails the checks."""
    from checks import check_output
    from hostclock import HostClock
    from tracer import METRICS, Tracer

    cli = _import_program()
    manifest, setup_s = set_up(workload, seed, size, WORK / workload)
    if corrupt is not None:
        corrupt(manifest)
    runner = Runner(cli, manifest, check_output, HostClock())
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "meta": metadata(manifest)}
    if trace:
        untraced = _repeat(runner, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _repeat(runner, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        spans_path = WORK / f"trace-{workload}-seed{seed}.json"
        tracer.write(spans_path)
        values = tracer.layer_metrics(untraced, traced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in METRICS.items()}
        record["spans_file"] = str(spans_path)
    else:
        _repeat(runner, seconds)
        values = {
            "samples_per_s": statistics.median(runner.samples_per_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record["passes"] = len(runner.pass_s)
    record["pass_s"] = summarize(runner.pass_s)
    record["pass_wall_s"] = summarize(runner.pass_wall_s)
    record["host_kernel_s"] = summarize(runner.clock.kernel_s)
    record["command_pass_s"] = runner.command_s
    record["command_pass_wall_s"] = runner.command_wall_s
    record["samples_per_s"] = summarize(runner.samples_per_s)
    record["command_s"] = {f"{kind}_s": dict(summarize(v), unit="s")
                           for kind, v in runner.kind_s.items()}
    record["latency_s"] = {kind: dict(summarize(v), unit="s")
                           for kind, v in runner.latency_s.items()}
    record["attempted"] = runner.attempted
    record["failed"] = len(runner.failures)
    record["fail_frac"] = len(runner.failures) / runner.attempted
    record["failures"] = runner.failures[:20]
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soapcert benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("search", "ingest", "apex"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_CAP)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (ImportError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    WORK.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in record["failures"]:
        sys.stderr.write(f"FAILED {failure['command']}: "
                         f"{'; '.join(failure['failures'])}\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
