"""Negative control for the benchmark's output checks.

    python3 perfbench/control.py

Runs one round of the ``corpus`` and ``verify_scaled`` operations (seed 0) with
each deliberately corrupted encoding (``RewriteOptions.corrupt_div_big_m``
and ``corrupt_bool_and``) and lists the ops whose checks failed beyond
the known faults.  Exits 0 when every corruption turned some check red,
1 when one went unnoticed.  ``compile_large`` is left out: its checks
are structural, and the corrupted encodings are structurally valid.
"""

from __future__ import annotations

import sys
from collections import Counter

from run import SRC, run_round

CORRUPTIONS = ("corrupt_div_big_m", "corrupt_bool_and")
WORKLOADS = ("corpus", "verify_scaled")


def main() -> int:
    sys.path.insert(0, str(SRC))
    from fzn2qip import rewrite

    import workloads

    unnoticed = []
    for flag in CORRUPTIONS:
        options = rewrite.RewriteOptions(**{flag: True})
        caught = 0
        for name in WORKLOADS:
            ops = workloads.WORKLOADS[name](0)
            results = run_round(ops, options, workloads.Checker(options))
            red = Counter(op.label.split("/")[0].split(" ")[0]
                          for op, (_, _, out) in zip(ops, results)
                          if not out.ok and workloads.known_fault(op, out) is None)
            caught += sum(red.values())
            print(f"{flag} on {name}: {sum(red.values())} of {len(ops)} ops failed"
                  + "".join(f"\n  {label}: {n}" for label, n in sorted(red.items())))
        if not caught:
            unnoticed.append(flag)
    if unnoticed:
        print(f"checks missed: {', '.join(unnoticed)}")
        return 1
    print("every corruption was caught")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
