"""Shared exception types and the desk-scale size caps that raise them."""

BUILD_CAP = 7  # build_plucker_matrix: largest n
DECOMPOSE_CAP = 6  # cli decompose: largest n
RANK_CAP = 6  # cli rank: largest n
EXPORT_CAP = 12  # cli export-ldpc: largest m
ENUMERATION_CAP = 10**6  # lagrangian_subspaces: most subspaces enumerated
# formats.parse_coord, parse_json: most rows or columns a header may declare
# (a ValueError beyond). They hold a support per declared row: a header of
# 10**6 empty rows takes 0.10 s and 16 MB (Python 3.11, Xeon), and the
# largest matrix the CLI writes, B(7), is 2002 x 3432.
PARSE_CAP = 10**6


class ResourceCapError(Exception):
    """Raised when an operation would exceed its desk-scale size cap."""
