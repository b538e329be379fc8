"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed and is built with numpy
alone, so the program under test only ever sees the generated files, arrays
or config. Generation time belongs to the benchmark, never to a measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# batch_wide: one expression matrix, many pathways.
BATCH_SIZES = {"n1": 100, "n2": 100, "genes": 5000, "pathways": 100, "pathway_p": 60}
# highdim_library: p >> n datasets with about two parents per child.
HIGHDIM_SIZES = {"n1": 20, "n2": 20, "p": 300, "datasets": 20}
# simulate_grid: the config handed to `dagtest simulate`.
SIM_SIZES = {"n1": 100, "n2": 100, "p": 100, "replicates": 100}
SIM_DELTAS = [0.0, 0.05, 0.1]

# Smaller shapes of the same workloads, used by the benchmark's own tests.
TINY = {
    "batch": {"n1": 12, "n2": 12, "genes": 120, "pathways": 8, "pathway_p": 10},
    "highdim": {"n1": 8, "n2": 8, "p": 30, "datasets": 5},
    "sim": {"n1": 15, "n2": 15, "p": 8, "replicates": 4},
}

UNMEASURED_EVERY = 5  # every 5th pathway names genes absent from the CSV
UNMEASURED_PER_PATHWAY = 3
CYCLE_EVERY = 4  # every 4th pathway carries one feedback edge


def _rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload])


def _random_dag(
    rng: np.random.Generator, p: int, mean_parents: float, max_parents: int
) -> list[tuple[int, int]]:
    """Forward edges (i, k), i < k, with a Poisson(mean) parent count per
    node, capped so that every node fit keeps at least one residual degree
    of freedom."""
    edges = []
    for k in range(1, p):
        size = min(k, max_parents, int(rng.poisson(mean_parents)))
        for i in rng.choice(k, size=size, replace=False):
            edges.append((int(i), k))
    return edges


# ---------------------------------------------------------------------------
# batch_wide
# ---------------------------------------------------------------------------

@dataclass
class BatchPathway:
    """Ground truth for one generated pathway file."""

    name: str
    genes: list[str]  # every node named in the file, measured or not
    edges: list[tuple[str, str]]  # the acyclic edges, by gene name
    cycle_edge: tuple[str, str] | None  # planted feedback edge, if any
    unmeasured: list[str]


@dataclass
class BatchInputs:
    expression_csv: Path
    pathway_dir: Path
    X1: np.ndarray  # group-1 rows in file order, exactly the parsed values
    X2: np.ndarray
    pathways: list[BatchPathway]
    bytes: dict


def make_batch(seed: int, out_dir: Path, sizes: dict = BATCH_SIZES) -> BatchInputs:
    """Write the expression CSV and pathway TSVs for `batch_wide`.

    Values are rounded to four decimals and written with ``repr``, so parsing
    the file gives back exactly ``X1``/``X2``. Group labels are shuffled
    across rows so the loader's group-1-first reordering is exercised.
    """
    rng = _rng(seed, 1)
    n1, n2, n_genes = sizes["n1"], sizes["n2"], sizes["genes"]
    genes = [f"G{j:05d}" for j in range(n_genes)]
    values = 8.0 + rng.standard_normal((n1 + n2, n_genes))
    values[n1:, : n_genes // 25] += 0.3
    values = np.round(values * 1e4) / 1e4
    groups = np.array([1] * n1 + [2] * n2)
    order = rng.permutation(n1 + n2)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "expression.csv"
    lines = ["sample,group," + ",".join(genes)]
    for row in order:
        lines.append(
            f"S{row:04d},{groups[row]}," + ",".join(map(repr, values[row].tolist()))
        )
    csv_path.write_text("\n".join(lines) + "\n")

    pw_dir = out_dir / "pathways"
    pw_dir.mkdir(exist_ok=True)
    pathways = []
    pathway_bytes = 0
    for idx in range(sizes["pathways"]):
        pw = _make_pathway(rng, idx, genes, sizes["pathway_p"], n1 + n2)
        text = _pathway_text(rng, pw)
        path = pw_dir / f"{pw.name}.tsv"
        path.write_text(text)
        pathway_bytes += len(text.encode())
        pathways.append(pw)
    return BatchInputs(
        expression_csv=csv_path,
        pathway_dir=pw_dir,
        X1=values[:n1],
        X2=values[n1:],
        pathways=pathways,
        bytes={
            "expression_csv": csv_path.stat().st_size,
            "pathway_tsvs": pathway_bytes,
        },
    )


def _make_pathway(rng, idx: int, genes: list[str], p: int, n_samples: int) -> BatchPathway:
    unmeasured = []
    if idx % UNMEASURED_EVERY == 0:
        unmeasured = [f"U{idx:03d}_{k}" for k in range(UNMEASURED_PER_PATHWAY)]
    measured = [genes[j] for j in rng.choice(len(genes), size=p - len(unmeasured), replace=False)]
    # Topological order of the pathway's nodes; unmeasured genes sit anywhere.
    nodes = measured + unmeasured
    nodes = [nodes[j] for j in rng.permutation(p)]
    edges = [(nodes[i], nodes[k]) for i, k in _random_dag(rng, p, 1.5, n_samples - 5)]
    cycle_edge = None
    candidates = [e for e in edges if e[0] not in unmeasured and e[1] not in unmeasured]
    if idx % CYCLE_EVERY == 0 and candidates:
        # Reverse one measured-to-measured edge. Listing its source first in
        # the header gives it label index 0, so every cycle the reversal
        # creates has this edge as its smallest and the repair removes it.
        parent, child = candidates[int(rng.integers(len(candidates)))]
        cycle_edge = (child, parent)
    return BatchPathway(
        name=f"pw{idx:03d}",
        genes=nodes,
        edges=edges,
        cycle_edge=cycle_edge,
        unmeasured=unmeasured,
    )


def _pathway_text(rng, pw: BatchPathway) -> str:
    header = list(pw.genes)
    if pw.cycle_edge is not None:
        header.remove(pw.cycle_edge[0])
        header.insert(0, pw.cycle_edge[0])
    else:
        header = [header[j] for j in rng.permutation(len(header))]
    listed = list(pw.edges) + ([pw.cycle_edge] if pw.cycle_edge else [])
    signs = rng.integers(0, 3, size=len(listed))
    lines = ["nodes: " + ", ".join(header)]
    for j in rng.permutation(len(listed)):
        src, dst = listed[j]
        sign = ("", "\t+", "\t-")[signs[j]]
        lines.append(f"{src}\t{dst}{sign}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# highdim_library
# ---------------------------------------------------------------------------

def make_highdim(seed: int, path: Path, sizes: dict = HIGHDIM_SIZES) -> dict:
    """Write K datasets drawn from linear SEMs to one ``.npz`` file.

    Columns are stored in a random permutation of the topological order, so
    the library's reordering is exercised; ``edges_<k>`` hold the edges in
    column indices. Returns the input size in bytes.
    """
    rng = _rng(seed, 2)
    n1, n2, p, K = sizes["n1"], sizes["n2"], sizes["p"], sizes["datasets"]
    arrays = {"X1": np.empty((K, n1, p)), "X2": np.empty((K, n2, p))}
    for k in range(K):
        topo_edges = _random_dag(rng, p, 2.0, n1 + n2 - 5)
        B = np.zeros((p, p))
        for i, j in topo_edges:
            B[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.5)
        n_par = np.maximum(np.count_nonzero(B, axis=0), 1)
        B /= np.sqrt(n_par)[None, :]
        E = rng.standard_normal((n1 + n2, p))
        X = np.linalg.solve((np.eye(p) - B).T, E.T).T  # rows x = Bᵀx + e
        X[n1:, : p // 10] += 0.4
        perm = rng.permutation(p)  # column c holds topological node perm[c]
        col_of = np.argsort(perm)
        X = X[:, perm]
        arrays["X1"][k] = X[:n1]
        arrays["X2"][k] = X[n1:]
        arrays[f"edges_{k}"] = np.array(
            [(col_of[i], col_of[j]) for i, j in topo_edges], dtype=np.int64
        ).reshape(-1, 2)
    np.savez(path, **arrays)
    return {"datasets_npz": path.stat().st_size}


def load_highdim(path: Path):
    """(X1, X2, [edge arrays]) as written by :func:`make_highdim`."""
    with np.load(path) as data:
        K = data["X1"].shape[0]
        return data["X1"], data["X2"], [data[f"edges_{k}"] for k in range(K)]


# ---------------------------------------------------------------------------
# simulate_grid
# ---------------------------------------------------------------------------

def make_sim_config(seed: int, path: Path, sizes: dict = SIM_SIZES) -> dict:
    """Write the `dagtest simulate` config; the seed is the generator's input."""
    doc = dict(sizes, seed=int(seed), delta_grid=SIM_DELTAS)
    text = json.dumps(doc)
    path.write_text(text)
    return {"config_json": len(text.encode())}
