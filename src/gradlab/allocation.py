"""The allocation plan of a Galerkin layer (`spectral.Galerkin`), built
from its tables before it allocates anything else: the shapes its assembly
allocates from and, per step of a kernel run, the arrays live at the
step's peak.  The colours' cut plus the largest step is the peak the layer
compares with `spectral.GALERKIN_BYTES_CAP`.  Numpy's own temporaries are
bounded terms, each pinned by a test trace.

A probe synthesizes a chunk of colours, then holds them, their images and
the weight's root beside, in turn, the operator's work, the ufunc buffer
that weights the images, and their cut (class parts and two half spectra,
or with no invariant axis the last fold).  A pairing holds S beside, in
turn, one mapped run and the buffer that scales it, the gate's copy of the
split cells, and the gathered blocks.  A solve holds the mass, L^{-1}, the
Grams, the system and the eigenvectors beside five arrays of one group.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fiber

# the probed operators' own work per colour beside their images, pinned by
# traces (2- and 3-tori, flat and conformal, ranks 1-3): arrays of the
# gradient's image, and of a rank p+1 monomial field for the d1* d1 form
_GRADIENT_WORK = 3
_FORM_WORK = 6
# bytes of a block's record beside its shared index arrays, and of one of
# the layer's other records (four, and one per group: small tables, the
# plan, small blocks numpy and Python keep for reuse), pinned by traces
_BLOCK_BYTES = 256
_RECORD_BYTES = 6 * 2**10
_FFT_SCRATCH = 2**12  # bytes numpy.fft holds beside its output (2.2 KiB traced)


@dataclass(frozen=True, eq=False)
class Plan:
    """Per group of sectors, a cut stack's (sectors, classes, colours, bins,
    parts) before its fiber axis (`cut`), a block stack's (blocks, size,
    size) (`blocks`), and per pairing width its sectors paired at once
    (`runs`); S (`cells`); `chunk` colours of `colour_bytes` each applied at
    once; per phase of a kernel run (`phases`), its steps, each the arrays
    live at its peak beside the colours' cut as (label, shapes, itemsize)."""

    cut: tuple
    cells: tuple
    blocks: tuple
    runs: dict
    colour_bytes: int
    chunk: int
    phases: dict


def nbytes(arrays):
    """Bytes of a plan's (label, shapes, itemsize) arrays."""
    return sum(size * sum(map(math.prod, shapes)) for _, shapes, size in arrays)


def plan(layer, pieces, probe_bytes):
    """The `Plan` of a layer whose Grams pair the gradient's cut under the
    fiber maps `pieces` (name -> structure), in chunks of `probe_bytes`."""
    n, p, t, count = layer.cache.n, layer.p, layer.t, layer.colour_count
    grid, classes, parts = layer.cache.spec.shape, len(layer._classes), 2 if layer.axes else 1
    cut = tuple((len(sel), classes, count, g.shape[1], parts) for sel, g, _ in layer._bins)
    blocks = tuple((len(g), r.shape[1], r.shape[1])
                   for g, r in zip(layer._groups, layer._group_rows))
    widths = {piece: len(structure(n, p)) for piece, structure in pieces.items()}
    # a run's mapped cut is no larger than S, and at least one sector
    runs = {w: tuple(min(len(sel), max(1, len(layer.keys) * count // (g.shape[1] * parts * w)))
                     for sel, g, _ in layer._bins) for w in {t, *widths.values()}}
    cells = (len(layer.keys) * classes, count, count)
    S = ("class matrices", (cells,), 8)

    def probe(c, extra, width, work, copies):
        # `extra` mirrored colours ride in the last chunk (`Galerkin._gate`);
        # width 0 is the colours' own probe, whose images are the colours
        rows = (c + extra,) + grid
        varying = rows[:1] + tuple(1 if a in layer.axes else size for a, size in enumerate(grid))
        buffer = ("ufunc buffer", ((min(np.getbufsize(), math.prod(rows) * t),),), 8)
        live = [("colours, images, weight root", (rows + (t,), rows + (width,), grid), 8)]
        shape = (classes, c) + tuple(layer._half[a] if a in layer.mirrors else size
                                     for a, size in enumerate(grid)) + (width or t,)
        if layer.axes:
            hat = (classes, c) + layer._half + (width or t,)
            gather = (classes, c, max(g.size for _, g, _ in layer._bins), width or t)
            cuts = [("class parts", (shape,) * bool(layer.mirrors), 8),
                    ("half spectra", (hat, hat if len(layer.axes) > 1 else gather), 16),
                    ("FFT scratch", ((),), _FFT_SCRATCH)]
        elif layer.mirrors:
            a = layer.mirrors[-1]
            prev = shape[:2 + a] + (grid[a],) + shape[3 + a:]
            cuts = [("class parts", (shape, shape) + (prev,) * (len(layer.mirrors) > 1), 8)]
        else:  # the images are the one sector's cut
            cuts = []
        synthesis = (rows + (t,),) * 2 + (varying + (t,),) * 2 + (grid,)
        return [[("colour synthesis, weight root", synthesis, 8), buffer],
                live + [("operator work", (rows + (work,),) * copies, 8)],
                live + [buffer], live + cuts]

    def pairing(width):
        s, shape = max(zip(runs[width], cut), key=lambda r: r[0] * math.prod(r[1][1:]))
        row = max((b[:2] for b in blocks), key=math.prod)
        return [[S, ("run", ((s,) + shape[1:] + (width,),), 8),
                 ("ufunc buffer", ((min(np.getbufsize(), s * classes * count ** 2),),), 8)],
                [S, ("split cells", ((len(layer._split), count, count),), 8),
                 ("entries between blocks", ((int(layer._cross.sum()),),), 8)],
                [S, ("block stacks", blocks, 8), ("gathered row, index buffers", (row,) * 4, 8)]]

    work = {"colour": (0, 0, 0), "form": (t, fiber.sym_dim(n, p + 1), _FORM_WORK),
            "gradient": (n * t, n * t, _GRADIENT_WORK)}
    colour = max(nbytes(step) for spec in work.values() for step in probe(1, 0, *spec))
    chunk = max(1, probe_bytes // colour)
    c, extra = min(chunk, count), len(layer.mirrors)
    sums = (t,) + tuple(size if a in layer.axes else 1 for a, size in enumerate(grid))
    tables = [("sector sums", (sums,), 8),
              ("bin gathers, group rows", tuple(g.shape for _, g, _ in layer._bins)
               + tuple(r.shape for r in layer._group_rows), 8),
              ("masks between blocks", (layer._cross.shape,), 1),
              ("block records", ((len(layer.blocks),),), _BLOCK_BYTES),
              ("layer and group records", ((4 + len(layer._groups),),), _RECORD_BYTES)]
    mass = tables + [("mass", blocks, 8)]
    grad = mass + [("L^-1", blocks, 8), ("gradient cut", tuple(s + (n * t,) for s in cut), 8)]
    phases = {"colour probe": (tables, probe(c, extra, *work["colour"])),
              "form probe": (mass + [("form cut", tuple(s + (t,) for s in cut), 8)],
                             probe(c, extra, *work["form"])),
              "gradient probe": (grad, probe(c, extra, *work["gradient"]))}
    for k, (piece, width) in enumerate(widths.items()):
        phases[f"{piece} pairing"] = (grad + [("Grams", blocks * k, 8)], pairing(width))
    phases["solve"] = (mass, [[("L^-1, Grams, system, eigenvectors", blocks * 7, 8),
                               ("solve work", (max(blocks, key=math.prod),) * 5, 8)]])
    return Plan(cut=cut, cells=cells, blocks=blocks, runs=runs, colour_bytes=colour,
                chunk=chunk, phases={name: [held + step for step in steps]
                                     for name, (held, steps) in phases.items()})
