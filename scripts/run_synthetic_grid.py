#!/usr/bin/env python3
"""End-to-end synthetic experiment: generate a four-member feature grid
(two homologous views of one latent space plus two independent families),
train a translator for every ordered pair with feattrans.pipeline.run_grid,
and write the models, the directed/normalized/undirected affinity matrices,
the minimum spanning tree, and a retrieval summary comparing direct vs
translated mAP.

Usage:
    python3 scripts/run_synthetic_grid.py --out runs/grid
"""
from __future__ import annotations

import argparse
import csv
from pathlib import Path

from feattrans import affinity, mst, pipeline, synth, translator


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--n", type=int, default=800, help="vectors per member")
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--dim", type=int, default=32, help="output feature dimension")
    p.add_argument("--clusters", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--data-seed", type=int, default=11)
    p.add_argument("--model-seed", type=int, default=1)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--model-latent", type=int, default=24)
    return p.parse_args()


def main() -> None:
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    spec = synth.SynthSpec(
        n_vectors=args.n,
        latent_dim=args.latent_dim,
        output_dim=args.dim,
        members=(
            ("fa", "orthogonal_linear"),
            ("fb", "orthogonal_linear"),
            ("fc", "independent"),
            ("fd", "independent"),
        ),
        noise_sigma=args.noise,
        n_clusters=args.clusters,
        seed=args.data_seed,
    )
    data = synth.generate(spec)
    names = tuple(name for name, _ in spec.members)

    cfg = translator.TrainConfig(lr=args.lr, max_epochs=args.epochs, patience=args.epochs, seed=0)
    grid = pipeline.run_grid(
        data.feature_sets, data.ground_truth, names, cfg,
        model_seed=args.model_seed, latent_dim=args.model_latent,
    )
    for (s, t), model in grid.models.items():
        translator.save_model(model, args.out / f"{s}2{t}.haet")
        print(f"trained {s}->{t}: best epoch {grid.logs[(s, t)].best_epoch}")

    u = grid.uam
    for label, matrix in (("M", grid.dam), ("R", grid.row_norm), ("C", grid.col_norm), ("U", u)):
        affinity.write_matrix_csv(matrix, args.out / f"{label}.csv")
    mst.export(grid.tree, args.out)

    with open(args.out / "retrieval_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "direct_map", "translated_map", "drop", "u"])
        for (s, t), translated in grid.translated_map.items():
            direct = grid.direct_map[t]
            writer.writerow([
                s, t, f"{direct:.2f}", f"{translated:.2f}",
                f"{direct - translated:.2f}", f"{u.entry(s, t):.4f}",
            ])

    print(f"\nundirected affinity matrix ({', '.join(names)}):")
    for row in u.values:
        print("  " + "  ".join(f"{x:.3f}" for x in row))
    print(f"MST edges: {grid.tree.edges}")
    print(f"outputs written to {args.out}")


if __name__ == "__main__":
    main()
