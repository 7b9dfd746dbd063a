"""cffi API-mode build of the native kernel extension.

The C source lives in ``_kernels.c`` next to this module.  Builds are lazy
(first kernel request, never at import time) and cached on disk under the
package's ``_build/`` directory: the extension module's name embeds the build
variant plus a hash of the C source and the cdef, so editing the kernels (or
switching between the OpenMP and serial builds) produces a new module name and
a stale cache can never be loaded.

Two build variants exist.  ``"omp"`` compiles with ``-fopenmp`` and fans the
query loops out across threads; ``"serial"`` omits the flag, so the pragmas
vanish and the identical single-threaded loops remain.  :func:`load_kernels`
tries the OpenMP variant first and silently falls back to the serial build
when the toolchain lacks OpenMP support — setting ``REPRO_NATIVE_NO_OPENMP``
to a non-empty value skips the OpenMP attempt entirely (CI uses this to prove
the serial-C fallback path).  Everything here raises on failure —
:mod:`repro.native.dispatch` catches, records the reason once and falls back
to the numpy tier.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path

__all__ = [
    "CDEF",
    "cache_dir",
    "kernel_source",
    "module_name",
    "load_kernels",
    "openmp_requested",
]

#: The C declarations shared by the compiler and the ffi object.
CDEF = """
int repro_openmp_max_threads(void);

void repro_grid_scan(
    const double *qpts, int64_t nq,
    const double *cxs, const double *cys, const double *czs,
    const int64_t *order,
    const int64_t *cell_table, const int64_t *cell_indptr, int64_t ncells,
    const double *origin, double cell_size, const int64_t *dims,
    double r2, int self_query, int nthreads,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices,
    int64_t *candidates_out);

void repro_brute_block(
    const double *queries, int64_t nqb, int d,
    const double *data_t, int64_t nd,
    double r2, int nthreads,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices);

void repro_bvh_sphere(
    const double *qpts, int64_t nq,
    const double *confirm_pts,
    const double *node_lo, const double *node_hi,
    const int64_t *children, const uint8_t *leaf_mask,
    const int64_t *prim_start, const int64_t *prim_count,
    const int64_t *prim_indices, int64_t num_nodes,
    const double *centers, double r2,
    int exclude_self, const int64_t *self_map, const uint8_t *active,
    int nthreads, int64_t *stack,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices,
    int64_t *stats_out);

void repro_confirm_pairs(
    const double *qblock, int64_t nqb, int d, int64_t qbase,
    const double *points,
    const int64_t *cands, const int64_t *pair_indptr,
    double r2, int self_query, int nthreads,
    const int64_t *indptr,
    int64_t *row_counts,
    int64_t *indices);

int64_t repro_kdtree_build(
    const double *centroids, const double *prim_lo, const double *prim_hi,
    int64_t n, int64_t leaf_size, int64_t num_nodes,
    int64_t *perm,
    double *node_lo, double *node_hi,
    int64_t *left, int64_t *right,
    int64_t *prim_start, int64_t *prim_count,
    int64_t *stats_out);

int64_t repro_uf_union_edges(
    int64_t *parent, int64_t n,
    const int64_t *a, const int64_t *b, int64_t ne);
"""

#: No -ffast-math: the kernels must stay bit-compatible with numpy.
COMPILE_ARGS = ["-O3", "-march=native", "-fno-math-errno"]

#: Extra flags per build variant (compile *and* link for OpenMP).
VARIANT_FLAGS = {"omp": ["-fopenmp"], "serial": []}


def openmp_requested() -> bool:
    """Whether the OpenMP variant should be attempted at all."""
    return not os.environ.get("REPRO_NATIVE_NO_OPENMP", "").strip()


def kernel_source() -> str:
    """The C source of the kernels (raises if the file is missing)."""
    return (Path(__file__).parent / "_kernels.c").read_text()


def cache_dir() -> Path:
    """On-disk build cache directory (created on demand, gitignored)."""
    return Path(__file__).parent / "_build"


def module_name(source: str | None = None, variant: str = "omp") -> str:
    """Extension module name derived from the variant + source/cdef hash."""
    if source is None:
        source = kernel_source()
    digest = hashlib.sha256((CDEF + source + variant).encode()).hexdigest()[:12]
    return f"_repro_kernels_{variant}_{digest}"


def _load_extension(name: str, directory: Path):
    """Import a previously built extension module from the cache directory."""
    matches = sorted(directory.glob(f"{name}*.so"))
    if not matches:
        return None
    loader = importlib.machinery.ExtensionFileLoader(name, str(matches[0]))
    spec = importlib.util.spec_from_loader(name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _build_variant(source: str, variant: str, directory: Path):
    """Load (or compile, then load) one build variant; raises on failure."""
    name = module_name(source, variant)
    module = _load_extension(name, directory)
    if module is None:
        from cffi import FFI

        flags = VARIANT_FLAGS[variant]
        builder = FFI()
        builder.cdef(CDEF)
        builder.set_source(
            name,
            source,
            extra_compile_args=COMPILE_ARGS + flags,
            extra_link_args=list(flags),
        )
        directory.mkdir(parents=True, exist_ok=True)
        builder.compile(tmpdir=str(directory), verbose=False)
        module = _load_extension(name, directory)
        if module is None:
            raise RuntimeError(
                f"cffi reported success but no {name}*.so in {directory}"
            )
    return module


def load_kernels():
    """Return ``(lib, ffi)`` for the compiled kernels, building if needed.

    Tries the OpenMP variant first (unless ``REPRO_NATIVE_NO_OPENMP`` is set),
    then the serial variant.  Raises on any total failure (no cffi, no
    compiler, both compiles failing); the dispatch layer translates that into
    a recorded numpy fallback.
    """
    source = kernel_source()
    directory = cache_dir()

    variants = ["omp", "serial"] if openmp_requested() else ["serial"]
    last_exc: Exception | None = None
    for variant in variants:
        try:
            module = _build_variant(source, variant, directory)
        except Exception as exc:  # try the next (serial) variant
            last_exc = exc
            continue
        return module.lib, module.ffi
    raise last_exc if last_exc is not None else RuntimeError("no build variant")
