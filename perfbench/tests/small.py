"""Shrinks every workload's inputs so tests run the whole benchmark in seconds."""

import workloads


def shrink(monkeypatch):
    monkeypatch.setattr(workloads, "NODE10K", dict(workloads.NODE10K, num_nodes=300))
    monkeypatch.setattr(workloads, "NODE100K", dict(workloads.NODE100K, num_nodes=500))
    monkeypatch.setattr(workloads, "NUM_MOLECULES", 200)
    monkeypatch.setattr(workloads, "NUM_SCAFFOLDS", 40)
    monkeypatch.setattr(workloads, "KG", dict(workloads.KG, num_entities=150, num_triples=500))
    monkeypatch.setattr(workloads, "NUM_CANDIDATES", 30)
