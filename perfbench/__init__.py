"""perfbench: the repo's wall-clock benchmark.

Count-based, pass-structured, one closed-loop client: five workloads, eight
end-to-end metrics, and a traced run that measures every layer of
``src/repro`` from outside.  See ``perfbench/README.md``.
"""
