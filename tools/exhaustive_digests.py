"""Check exhaustive verify reports past N = 12 against the digests README records.

An exhaustive run at N checks every one of the (N-1)!! demands: 135,135 at
N = 14 and 2,027,025 at N = 16, the demand budget.  The test suite stops at
N = 12, apart from chevron and triangular at N = 14
(``tests/test_verification.py::test_chevron_exhaustive_14_matches_its_digest``
and ``test_triangular_exhaustive_14_matches_its_digest``).
This script runs ``verify_design(design, N, cap=16)`` for every design and
each N asked for, hashes ``report_to_json`` of the report with sha256 and
compares the digest with README's table of exhaustive digests (the rows
under ``| design | N = 14 | N = 16 |``).  It prints one line per run, with
its time, and exits 0 when every report matches its digest, 1 otherwise,
and 2, before any run, when an N is no integer.

Run it with ``PYTHONPATH=src python tools/exhaustive_digests.py [N ...]``;
N defaults to 14 and 16.  Standard library only; not part of the test suite.
"""
from __future__ import annotations

import hashlib
import re
import sys
import time
from pathlib import Path

from pairswitch import Design, verify_design
from pairswitch.verification import report_to_json

README = Path(__file__).resolve().parent.parent / "README.md"


def recorded(text: str) -> dict[tuple[str, int], str]:
    """README's digests, keyed by (design, N): the rows below the first
    table header that starts ``| design | N = ``."""
    header = re.search(r"^\| design((?: \| N = \d+)+) \|$", text, re.M)
    if header is None:
        return {}
    ports = [int(n) for n in re.findall(r"N = (\d+)", header.group(1))]
    digests = {}
    for line in text[header.end():].lstrip("\n").splitlines():
        if not line.startswith("|"):
            break
        design, *cells = [cell.strip(" `") for cell in line.strip("|").split("|")]
        digests.update({(design, n): cell for n, cell in zip(ports, cells)
                        if re.fullmatch(r"[0-9a-f]{64}", cell)})
    return digests


def main(argv: list[str]) -> int:
    try:
        ports = [int(arg) for arg in argv] or [14, 16]
    except ValueError:
        print(f"usage: exhaustive_digests.py [N ...], each N an integer; got {' '.join(argv)!r}",
              file=sys.stderr)
        return 2
    digests = recorded(README.read_text())
    status = 0
    for n in ports:
        for design in Design:
            want = digests.get((design.value, n))
            if want is None:
                print(f"{design.value} N = {n}: README records no digest")
                status = 1
                continue
            start = time.perf_counter()
            report = verify_design(design, n, cap=16)
            seconds = time.perf_counter() - start
            got = hashlib.sha256(report_to_json(report).encode()).hexdigest()
            verdict = "ok" if got == want else f"MISMATCH: got {got}, README records {want}"
            print(f"{design.value} N = {n}: {verdict} ({report.demands_checked:,} demands, "
                  f"{seconds:.1f} s)", flush=True)
            status |= got != want
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
