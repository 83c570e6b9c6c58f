"""Starts CLI children for the cli workload, one at a time.

    python3 bench/launcher.py   (started by workloads.Launcher)

Linux carries a process's peak RSS over fork and exec into its children, so
a child started by the benchmark process would report the benchmark's own
peak.  This process stays small (no numpy, nothing kept between requests),
so the peak RSS it reports is the largest child's.  Protocol: one JSON argv
list per line on stdin; per request, one JSON header line on stdout followed
by the child's stdout and stderr bytes.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        try:
            proc = subprocess.run(json.loads(line), capture_output=True, timeout=150, check=False)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = -9, exc.stdout or b"", b"timed out after 150 s"
        head = {"returncode": code, "stdout": len(stdout), "stderr": len(stderr),
                "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        out.write(json.dumps(head).encode() + b"\n" + stdout + stderr)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
