"""The repo's benchmark: six workloads, end-to-end metrics, a traced run.

Run it with ``python3 ledger/run.py --workload NAME`` from the repo
root; see ``ledger/README.md``.  Nothing here is imported by ``src/``
or collected by tier-1.
"""
