"""The benchmark's workloads: `pexprk run` flag sets and their seed rows.

Each workload is a flag set a user can type, the same settings as
`RunConfig` fields for in-process harness calls, and the study rows the seed
commit produced for it.  The Gray-Scott problem has no random input, so
these rows do not depend on the benchmark's `--seed`.
"""

from dataclasses import dataclass

# A row passes the correctness gate when its error_l2 is within ERROR_RTOL
# of the seed value and its observed order (if any) within ORDER_ATOL.
# Moving the study's Krylov tolerance between 1e-11 and 1e-13 moves error_l2
# by less than 1e-9 relative; the reference's own self-consistency gap is
# 1.9e-5 of the smallest error.  A wrong method moves it by orders of
# magnitude.
ERROR_RTOL = 1e-4
ORDER_ATOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flags: tuple        # `pexprk run` flags
    config: dict        # the same settings as RunConfig fields
    seed_rows: tuple    # (h, error_l2, observed_order or None) per study row

    def run_config(self):
        from pexprk.harness import RunConfig

        return RunConfig(**self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mid-species-o4",
            why=(
                "species split: 160 solves per step on symmetric blocks, so Gram-Schmidt, "
                "the eigh-path phi_array and the Neumann-expanded coefficient trees carry "
                "the study"
            ),
            flags=("--grid", "160", "--partition", "species", "--form", "part",
                   "--order", "4", "--steps", "1"),
            config=dict(grid=160, partition="species", form="part", order=4, steps=(1,)),
            seed_rows=((0.262144, 3.467076537200651e-07, None),),
        ),
        Workload(
            name="mid-space-o4",
            why=(
                "space split: composite embedded sub-block operators, rebuilt from the full "
                "Jacobian each step, put the study on matvec overhead and Gram-Schmidt"
            ),
            flags=("--grid", "160", "--partition", "space", "--form", "part",
                   "--order", "4", "--steps", "1"),
            config=dict(grid=160, partition="space", form="part", order=4, steps=(1,)),
            seed_rows=((0.262144, 1.6318885036701482e-06, None),),
        ),
        Workload(
            name="mid-orig-o4",
            why=(
                "bypass: same reference, original-form study with no Neumann-expanded "
                "trees, so changes to the transformed and partitioned forms leave study_s alone"
            ),
            flags=("--grid", "160", "--form", "orig", "--order", "4", "--steps", "1"),
            config=dict(grid=160, form="orig", order=4, steps=(1,)),
            seed_rows=((0.262144, 1.2455007056031357e-07, None),),
        ),
    )
}


def row_mismatch(row, expected) -> str:
    """Why a study row misses its seed value, or '' when it matches."""
    h, error, order = expected
    if row.failed:
        return f"h={row.h!r} failed: {row.message}"
    if repr(row.h) != repr(h):
        return f"h={row.h!r}, expected {h!r}"
    if not abs(row.error_l2 - error) <= ERROR_RTOL * error:
        return f"h={h!r}: error_l2 {row.error_l2!r}, seed {error!r}"
    if (row.observed_order is None) != (order is None) or (
        order is not None and not abs(row.observed_order - order) <= ORDER_ATOL
    ):
        return f"h={h!r}: observed order {row.observed_order!r}, seed {order!r}"
    return ""
