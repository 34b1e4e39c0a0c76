"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
pipelines can react precisely; all of them derive from FewslopesError.
"""

from __future__ import annotations


class FewslopesError(Exception):
    """Base class for all package-specific errors."""


# --- graph / embedding errors -------------------------------------------------

class NotPlanar(FewslopesError):
    """Input graph admits no planar embedding.

    Carries a Kuratowski witness (an edge list of a K5/K33 subdivision) when
    one is available.
    """

    def __init__(self, message: str, witness_edges=None):
        super().__init__(message)
        self.witness_edges = witness_edges


class Disconnected(FewslopesError):
    """Operation requires a connected graph."""


class NotBiconnected(FewslopesError):
    """Operation requires a biconnected graph."""


class NotTriangulated(FewslopesError):
    """Operation requires every face of the embedding to be a triangle."""


class VerticesNotOnOuterFace(FewslopesError):
    """A designated vertex is not on the outer face of the embedding."""


class TooFewVertices(FewslopesError, ValueError):
    """The graph has fewer vertices than the pipeline's construction needs.
    It is a ValueError too, as the size is a bad argument value."""


class StOrderInfeasible(FewslopesError):
    """No vertex order with the requested endpoints satisfies the
    earlier/later-neighbor condition together with the outer-face
    constraint on the second vertex."""


# --- circle packing errors ----------------------------------------------------

class NoConvergence(FewslopesError):
    """Radius iteration did not reach the target residual: it hit the step
    cap, or no step length lowered the residual any more."""

    def __init__(self, max_iters: int, residual: float):
        super().__init__(
            f"packing solver stopped after {max_iters} steps "
            f"(max angle residual {residual:.3e})"
        )
        self.max_iters = max_iters
        self.residual = residual


class InconsistentRadii(FewslopesError):
    """Center placement contradicts an earlier placement beyond tolerance."""


class PrecisionExhausted(FewslopesError):
    """Floating point cannot represent the layout: packing centers come out
    non-finite or overlapping, a scaled center leaves the float range, a
    snapped face is inverted or degenerate, or two adjacent vertices snap to
    one point."""


# --- one-bend errors ----------------------------------------------------------

class RetractionFailed(FewslopesError):
    """Removing spurious contacts would destroy a required contact even
    after grid refinement."""


# --- two-bend errors ----------------------------------------------------------

class SlopesTooFew(FewslopesError):
    """Requested slope count is below the ceil(d/2) minimum."""


class DegreeTooHigh(FewslopesError):
    """The designated final vertex has too many neighbors for the slope
    budget (needs degree < 2s)."""


class GluingFailed(FewslopesError):
    """Sub-drawings at a cut vertex cannot be packed into disjoint
    angular sectors."""


# --- family generator errors --------------------------------------------------

class DegreeTooSmall(FewslopesError):
    """Family parameter d is below the generator's minimum."""


# --- verifier errors ----------------------------------------------------------

class AmbiguousBucket(FewslopesError):
    """Two empirical slope clusters are closer than 2*tol but farther
    apart than tol; the census cannot bucket them decisively."""


class SlopeOffGrid(FewslopesError):
    """A segment's direction matches no slope-set direction within
    tolerance."""
