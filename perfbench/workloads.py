"""The benchmark's workloads and their deterministic input generator.

Every input is built from the workload seed with graphstress's own public
functions, so the program under test receives only files, as it would from a
user. Draws use graphstress's counter-addressed random streams, which makes
the same seed give the same bytes on any machine. The knowledge-graph
queries come from `stress split --mechanism kg`, as an external model would
get them.

The benchmark's --seed picks one of INPUT_SEEDS input seeds, the ones whose
reference outputs are committed in references.json, so every run is checked
against a recorded reference whatever its seed.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALL_AXES = ["corruption", "ood", "imbalance", "fairness", "interpret"]

NODE10K = dict(name="node10k", num_nodes=10_000, num_classes=4)
NODE100K = dict(name="node100k", num_nodes=100_000, num_classes=2)
NUM_MOLECULES = 20_000
NUM_SCAFFOLDS = 5_000      # ids drawn from this range: about 4.9k distinct groups
KG = dict(name="kg", num_entities=2_000, num_relations=8, num_triples=5_400)
NUM_CANDIDATES = 300       # candidates ranked per KG query, the true one included
INPUT_SEEDS = 24           # input seeds with committed references


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # `stress run --workers`
    seeds: int    # protocol seeds per run (config "seeds")


# Why each workload exists is recorded in BENCHMARK.json. Uncovered on
# purpose: feature noise (inapplicable to refmodel), the external
# interpret-probs path and atom ablation.
WORKLOADS = {w.name: w for w in (
    Workload("node10k-allaxes", workers=2, seeds=2),
    Workload("node100k-propagate", workers=1, seeds=1),
    Workload("ood-external", workers=1, seeds=2),
)}


def input_seed(seed: int) -> int:
    """The input seed a benchmark --seed generates its inputs from."""
    return seed % INPUT_SEEDS


def _generator_digest(workload: str) -> str:
    """Digest of everything the inputs depend on besides the seed.

    That is the sizes above, this file and the graphstress sources that
    write the inputs, so a change to any of them regenerates the inputs.
    """
    import graphstress
    h = hashlib.sha256(repr((NODE10K, NODE100K, NUM_MOLECULES, NUM_SCAFFOLDS, KG,
                             NUM_CANDIDATES, WORKLOADS[workload])).encode())
    for path in [Path(__file__), *sorted(Path(graphstress.__file__).parent.glob("*.py"))]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def input_dir(cache: Path, workload: str, seed: int) -> Path:
    """Generated inputs of (workload, seed), made on first use and then reused.

    The directory name carries the generator digest, so stale inputs are never
    reused. Only the newest inputs of each workload are kept.
    """
    out = cache / workload / f"seed{seed}-{_generator_digest(workload)}"
    if (out / "COMPLETE").is_file():
        return out
    for old in (cache / workload).glob("*") if (cache / workload).is_dir() else []:
        shutil.rmtree(old)
    tmp = cache / workload / f".tmp_{out.name}"
    tmp.mkdir(parents=True)
    GENERATORS[workload](seed, tmp)
    (tmp / "COMPLETE").write_text("")
    tmp.rename(out)
    return out


def stress_config(workload: str, inputs: Path) -> dict:
    """The `stress run` config of a workload over its generated inputs."""
    inputs = inputs.resolve()
    seeds = WORKLOADS[workload].seeds
    if workload == "node10k-allaxes":
        return {"seeds": seeds, "axes": ALL_AXES,
                "datasets": [{"manifest": str(inputs / "node10k" / "manifest.json")}],
                "methods": [{"kind": "refmodel"}], "interpret_targets": 10}
    if workload == "node100k-propagate":
        return {"seeds": seeds,
                "axes": ["corruption", "ood", "imbalance", "fairness"],
                "datasets": [{"manifest": str(inputs / "node100k" / "manifest.json")}],
                "methods": [{"kind": "refmodel"}]}
    return {"seeds": seeds, "axes": ["ood"],
            "datasets": [{"manifest": str(inputs / d / "manifest.json")}
                         for d in ("node100k", "mol20k", "kg")],
            "methods": [{"kind": "external", "name": "ext", "pred_dir": str(inputs / "preds")}],
            "write_operator_outputs": True}


def manifests(config: dict) -> list[str]:
    return [d["manifest"] for d in config["datasets"]]


# ---------------------------------------------------------------------------
# generators: (seed, out_dir) -> files under out_dir
# ---------------------------------------------------------------------------

def _uniform(seed: int, stream: str, n: int) -> np.ndarray:
    from graphstress.determinism import derive_key, uniform
    return uniform(derive_key("perfbench", "inputs", stream, 0, seed),
                   np.arange(n, dtype=np.int64))


def _node(seed: int, out: Path, spec: dict):
    from graphstress.graph_store import save_dataset
    from graphstress.synthetic import make_node_dataset
    ds = make_node_dataset(seed=seed, **spec)
    save_dataset(ds, out / spec["name"])
    return ds


def gen_node10k(seed: int, out: Path) -> None:
    _node(seed, out, NODE10K)


def gen_node100k(seed: int, out: Path) -> None:
    _node(seed, out, NODE100K)


def _write_pred(path: Path, unit_ids: np.ndarray, rows: np.ndarray) -> None:
    from graphstress.metrics import PredictionTable, write_prediction_file
    path.parent.mkdir(parents=True, exist_ok=True)
    write_prediction_file(path, PredictionTable(unit_ids, rows))


def _molecules(seed: int):
    """Rings of 3-8 atoms with 1-4 tail atoms; label = ring of 6 or more."""
    from graphstress.graph_store import Dataset, Graph, GraphCollection
    draws = _uniform(seed, "molecules", NUM_MOLECULES * 3).reshape(NUM_MOLECULES, 3)
    rings = 3 + (draws[:, 0] * 6).astype(np.int64)
    tails = 1 + (draws[:, 1] * 4).astype(np.int64)
    scaffolds = (draws[:, 2] * NUM_SCAFFOLDS).astype(np.int64)
    graphs = []
    for ring, tail in zip(rings.tolist(), tails.tolist()):
        n = ring + tail
        src = list(range(ring)) + list(range(ring - 1, n - 1))
        dst = [(i + 1) % ring for i in range(ring)] + list(range(ring, n))
        graphs.append(Graph.from_arcs(n, np.array(src), np.array(dst), symmetrize=True))
    labels = (rings >= 6).astype(np.int8).reshape(-1, 1)
    coll = GraphCollection(graphs=graphs, labels=labels, scaffold_ids=scaffolds)
    coll.validate()
    return Dataset(kind="graph_collection", name="mol20k", collection=coll)


def _rankings(seed: int, split_dir: Path, num_entities: int, stream: str):
    """Scores for the true entity plus NUM_CANDIDATES - 1 others per query."""
    queries = np.loadtxt(split_dir / "queries.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
    q = len(queries)
    truth = np.where(queries[:, 3] == 0, queries[:, 0], queries[:, 2])
    pick = _uniform(seed, f"{stream}_candidates", q * num_entities).reshape(q, num_entities)
    pick[np.arange(q), truth] = -1.0  # the true entity is always a candidate
    cands = np.sort(np.argpartition(pick, NUM_CANDIDATES - 1, axis=1)[:, :NUM_CANDIDATES], axis=1)
    scores = _uniform(seed, f"{stream}_scores", q * NUM_CANDIDATES).reshape(q, NUM_CANDIDATES)
    scores = scores + 0.35 * (cands == truth[:, None])
    qids = np.repeat(np.arange(q, dtype=np.int64), NUM_CANDIDATES)
    return qids, cands.ravel(), scores.ravel()


def gen_ood_external(seed: int, out: Path) -> None:
    from graphstress.cli import main as stress
    from graphstress.graph_store import save_dataset
    from graphstress.metrics import write_ranking_file
    from graphstress.synthetic import make_triple_store

    seeds = range(WORKLOADS["ood-external"].seeds)
    preds = out / "preds"
    node = _node(seed, out, NODE100K)
    labels = node.graph.labels
    ids = np.arange(len(labels), dtype=np.int64)
    for sub in ("degree", "temporal"):
        for s in seeds:
            p_true = 0.2 + 0.75 * _uniform(seed, f"node_{sub}_{s}", len(labels))
            p1 = np.where(labels == 1, p_true, 1.0 - p_true)
            _write_pred(preds / "node100k" / "ood" / sub / f"seed{s}.pred", ids,
                        np.column_stack([1.0 - p1, p1]))

    mol = _molecules(seed)
    save_dataset(mol, out / "mol20k")
    y = mol.collection.labels[:, 0].astype(np.float64)
    mol_ids = np.arange(len(y), dtype=np.int64)
    for sub, noise in (("scaffold", 1.0), ("random", 0.7)):
        for s in seeds:
            score = 0.6 * y + noise * _uniform(seed, f"mol_{sub}_{s}", len(y))
            _write_pred(preds / "mol20k" / "ood" / sub / f"seed{s}.pred", mol_ids,
                        score.reshape(-1, 1))

    kg = make_triple_store(seed=seed, **KG)
    manifest = save_dataset(kg, out / "kg")
    for s in seeds:
        split_dir = out / "kg_splits" / f"seed{s}"
        rc = stress(["split", "--mechanism", "kg", "--dataset", str(manifest),
                     "--seed", str(s), "--out", str(split_dir)])
        if rc != 0:
            raise RuntimeError(f"stress split --mechanism kg exited {rc}")
        qids, cands, scores = _rankings(seed, split_dir, KG["num_entities"], f"kg_{s}")
        path = preds / "kg" / "ood" / "kg" / f"seed{s}.ranking"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_ranking_file(path, qids, cands, scores)


GENERATORS = {
    "node10k-allaxes": gen_node10k,
    "node100k-propagate": gen_node100k,
    "ood-external": gen_ood_external,
}
