"""KG-engine benchmark: end-to-end docs/s on two seeded workloads, and a
traced run that splits each pass by layer (see ``perfbench/run.py``)."""
