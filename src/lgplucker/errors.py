"""Shared exception types and the desk-scale size caps that raise them."""

BUILD_CAP = 7  # build_plucker_matrix: largest n
DECOMPOSE_CAP = 6  # cli decompose: largest n
RANK_CAP = 6  # cli rank: largest n
EXPORT_CAP = 12  # cli export-ldpc: largest m
ENUMERATION_CAP = 10**6  # lagrangian_subspaces: most subspaces enumerated


class ResourceCapError(Exception):
    """Raised when an operation would exceed its desk-scale size cap."""
