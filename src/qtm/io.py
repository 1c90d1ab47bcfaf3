"""Trajectory export: CSV, JSON, SVG scatter, and run manifests.

Floats are serialized with repr(), the shortest representation that parses
back to the identical double, so a written file re-read equals the
in-memory trajectory bit for bit. All writers are pure functions of their
inputs; writing the same trajectory twice produces identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import sys

import numpy as np

from .state import REDUCE_BLOCK

CSV_HEADER = "m,n,p,lambda_x,lambda_y,lambda_z"
SVG_SIZE = 600
SVG_SPAN = 1.1  # the viewport covers [-1.1, 1.1]² in the yz plane
_CSV_ROW = "%d,%d,%d,%r,%r,%r\n"
# a point of the "points" list of json.dump(..., indent=1), comma first;
# %s spells a float as its repr, and passes json's NaN and Infinity through
_JSON_POINT = ",\n  [\n   %d,\n   %s,\n   %s,\n   %s\n  ]"


def step_labels(num_points: int, tape_size: int):
    """(n, p) schedule labels for steps 0..num_points-1; the m=0 row gets
    the sentinel (0, 0) since no gate produced it."""
    m = np.arange(num_points)
    cycle = 2 * tape_size
    n = (m - 1) % cycle + 1
    p = (m - 1) // cycle + 1
    n[:1] = 0
    p[:1] = 0
    return n, p


@contextlib.contextmanager
def _open_out(path):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def write_csv(path, header: str, lines) -> None:
    """A header line, then one line per row, to path ("-" for stdout)."""
    with _open_out(path) as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_json(payload, path) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _flat_blocks(bloch, *labels):
    """(rows, flat) for every block of REDUCE_BLOCK rows of bloch: flat
    holds m, labels[0][m], ..., x, y, z of each row in turn, as Python
    ints and floats. Rows are converted one block at a time, so a long
    trajectory never exists as Python objects all at once."""
    width = 4 + len(labels)
    for s in range(0, len(bloch), REDUCE_BLOCK):
        block = bloch[s:s + REDUCE_BLOCK]
        rows = len(block)
        flat = [0] * (width * rows)
        flat[0::width] = range(s, s + rows)
        for j, col in enumerate([lab[s:s + rows] for lab in labels]
                                + list(block.T), 1):
            flat[j::width] = col.tolist()
        yield rows, flat


def write_trajectory_csv(traj, path) -> None:
    """The header, then one row m,n,p,x,y,z per step (floats by repr),
    written with one %-format per block of REDUCE_BLOCK rows."""
    n, p = step_labels(len(traj.bloch), traj.num_tape_spins)
    with _open_out(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for rows, flat in _flat_blocks(traj.bloch, n, p):
            fh.write(_CSV_ROW * rows % tuple(flat))


def write_trajectory_json(traj, manifest: dict, path) -> None:
    """Write {"manifest": manifest, "points": [[m, x, y, z], ...]} in the
    exact bytes of write_json. json lays out the manifest; the points,
    where json's pure-Python indenting encoder would spend its time, are
    written here with one %-format per block of rows in the same layout,
    floats by float.__repr__ and non-finite ones as json spells them
    (NaN, Infinity)."""
    head = json.dumps({"manifest": manifest, "points": []}, indent=1)
    finite = np.isfinite(traj.bloch).all()
    with _open_out(path) as fh:
        if not len(traj.bloch):  # json spells an empty list []
            fh.write(head + "\n")
            return
        fh.write(head[:-len("[]\n}")] + "[")
        skip = 1  # the first point has no comma before it
        for rows, flat in _flat_blocks(traj.bloch):
            if not finite:
                for j in (1, 2, 3):
                    flat[j::4] = map(json.dumps, flat[j::4])
            fh.write((_JSON_POINT * rows % tuple(flat))[skip:])
            skip = 0
        fh.write("\n ]\n}\n")


def trajectory_svg(traj) -> str:
    """Scatter of the yz trajectory on a fixed square canvas.

    Minimal on purpose: enough to eyeball the generated pattern, not
    publication graphics. Deterministic for a given trajectory.
    """
    scale = SVG_SIZE / (2.0 * SVG_SPAN)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        '<g fill="#1f4e79" fill-opacity="0.75">',
    ]
    for row in traj.bloch:
        cx = (row[1] + SVG_SPAN) * scale
        cy = (SVG_SPAN - row[2]) * scale  # bloch z points up, svg y points down
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="2"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trajectory_svg(traj, path) -> None:
    with _open_out(path) as fh:
        fh.write(trajectory_svg(traj))


def write_manifest(manifest: dict, out_path: str) -> str:
    """Drop a manifest JSON next to a data file; returns the sidecar path."""
    sidecar = f"{out_path}.manifest.json"
    write_json(manifest, sidecar)
    return sidecar
