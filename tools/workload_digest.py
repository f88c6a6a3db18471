"""Byte digests of the benchmark workloads' command outputs.

Builds each workload's graphs and manifest with ``bench/workloads.py``'s
``write_workload`` in a temporary directory, runs every manifest command
through ``soapcert.cli.run`` in process, and prints one sha256 per command,
over its exit code, its stdout and the file it writes (if any), then one
overall digest over those lines.  Paths are relative to the temporary
directory, so two source trees give the same digests exactly when their
commands give the same bytes.  stderr, which carries the elapsed time, is
left out.

    python3 tools/workload_digest.py --seed 11

Run it on two checkouts and compare the output to check that a change
keeps every workload command's output byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def command_digests(seed: int) -> list[str]:
    """One line per workload command: workload, index, kind, exit code and
    sha256."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from soapcert import cli

    lines = []
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in workloads.WORKLOADS:
                manifest = workloads.write_workload(name, seed, Path(name))
                for i, command in enumerate(manifest["commands"]):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run(command["argv"])
                    digest = hashlib.sha256(f"{code}\n".encode())
                    digest.update(out.getvalue().encode())
                    if command["out_file"]:
                        with contextlib.suppress(OSError):
                            digest.update(
                                Path(command["out_file"]).read_bytes())
                    lines.append(f"{name} {i} {command['kind']} exit {code} "
                                 f"{digest.hexdigest()}")
        finally:
            os.chdir(start)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    lines = command_digests(args.seed)
    overall = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines + [f"overall {overall}"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
