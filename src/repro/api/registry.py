"""Protocol registry: string-keyed specs with declared parameter schemas.

Every protocol variant of the library is registered under a stable spec name
of the form ``<domain>/<label>`` — ``"hh/P3"``, ``"matrix/P2"``,
``"matrix/SVD"`` and so on — together with a :class:`ProtocolSpec` that
declares which keyword parameters the variant accepts, which are required,
and what they default to.  :func:`create` resolves a spec name plus keyword
arguments into a validated protocol instance::

    protocol = repro.create("hh/P2", num_sites=50, epsilon=0.01)
    tracker = repro.Tracker.create("matrix/P3", num_sites=50, dimension=44,
                                   epsilon=0.05, seed=7)

Experiments, the sweep engine, the CLI (``--protocol hh/P3``) and the
examples all resolve protocols through this registry instead of hand-wiring
protocol classes.  The registry is also the natural extension point for
future variants: registering a spec makes a protocol reachable from every
consumer (including checkpoint round-trip tests) at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..heavy_hitters.base import WeightedHeavyHitterProtocol
from ..heavy_hitters.exact import ExactForwardingProtocol
from ..heavy_hitters.p1_batched_mg import BatchedMisraGriesProtocol
from ..heavy_hitters.p2_threshold import ThresholdedUpdatesProtocol
from ..heavy_hitters.p3_sampling import (
    PrioritySamplingProtocol,
    WithReplacementSamplingProtocol,
)
from ..heavy_hitters.p4_randomized import RandomizedReportingProtocol
from ..matrix_tracking.base import MatrixTrackingProtocol
from ..matrix_tracking.baselines import CentralizedFDBaseline, CentralizedSVDBaseline
from ..matrix_tracking.p1_batched_fd import BatchedFrequentDirectionsProtocol
from ..matrix_tracking.p2_deterministic import DeterministicDirectionProtocol
from ..matrix_tracking.p3_sampling import (
    MatrixPrioritySamplingProtocol,
    WithReplacementMatrixSamplingProtocol,
)
from ..matrix_tracking.p4_singular_directions import SingularDirectionUpdateProtocol
from ..streaming.protocol import DistributedProtocol

__all__ = [
    "ParamSpec",
    "ProtocolSpec",
    "available_specs",
    "create",
    "get_spec",
    "registry_rows",
]

#: Domains a spec can belong to (the prefix of its name).
DOMAIN_HEAVY_HITTERS = "hh"
DOMAIN_MATRIX = "matrix"


@dataclass(frozen=True)
class ParamSpec:
    """Schema of one keyword parameter of a protocol spec."""

    name: str
    annotation: str
    required: bool = False
    default: Any = None
    doc: str = ""


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol variant: name, class and parameter schema."""

    name: str
    domain: str
    protocol_class: type
    summary: str
    params: Tuple[ParamSpec, ...]
    #: Optional hook that fills in computed defaults before construction.
    prepare: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def required_params(self) -> Tuple[str, ...]:
        """Names of the parameters that must be supplied to :meth:`build`."""
        return tuple(p.name for p in self.params if p.required)

    @property
    def optional_params(self) -> Tuple[str, ...]:
        """Names of the parameters that may be supplied to :meth:`build`."""
        return tuple(p.name for p in self.params if not p.required)

    def validate(self, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Validate ``kwargs`` against the schema; return the build kwargs.

        Unknown parameters and missing required parameters raise
        ``ValueError`` naming the offending keys and the accepted schema, so
        a typo'd experiment config fails with an actionable message instead
        of a ``TypeError`` deep inside a constructor.
        """
        known = {p.name for p in self.params}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)} for spec "
                f"{self.name!r}; accepted: {', '.join(sorted(known))}"
            )
        missing = [name for name in self.required_params if name not in kwargs]
        if missing:
            raise ValueError(
                f"spec {self.name!r} requires parameter(s) "
                f"{', '.join(missing)}"
            )
        merged: Dict[str, Any] = {}
        for param in self.params:
            if param.name in kwargs:
                merged[param.name] = kwargs[param.name]
            elif param.default is not None:
                merged[param.name] = param.default
        if self.prepare is not None:
            merged = self.prepare(merged)
        # Parameters left at None fall through to the constructor defaults.
        return {name: value for name, value in merged.items() if value is not None}

    def build(self, **kwargs: Any) -> DistributedProtocol:
        """Construct a validated protocol instance for this spec.

        The instance records the spec and the validated parameters as its
        :attr:`~repro.streaming.protocol.DistributedProtocol.build_spec`,
        which is what a checkpoint rebuilds it from.
        """
        params = self.validate(dict(kwargs))
        protocol = self.protocol_class(**params)
        protocol.build_spec = (self.name, params)
        return protocol


# --------------------------------------------------------------- param blocks
def _p(name: str, annotation: str, doc: str, required: bool = False,
       default: Any = None) -> ParamSpec:
    return ParamSpec(name=name, annotation=annotation, required=required,
                     default=default, doc=doc)


_NUM_SITES = _p("num_sites", "int", "number of distributed sites m", required=True)
_EPSILON = _p("epsilon", "float", "approximation parameter ε", required=True)
_DIMENSION = _p("dimension", "int", "number of matrix columns d", required=True)
_SEED = _p("seed", "seed", "seed for the per-site RNG streams")
_RECORDS = _p("keep_message_records", "bool",
              "retain the full per-message log (tests/debugging)")
_SVD_MODE = _p("svd_mode", "str",
               "FD compaction kernel: auto | exact | gram | randomized")


def _prepare_p2ss(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Fill the paper's default per-site space bound for ``hh/P2ss``."""
    if kwargs.get("site_space") is None:
        kwargs["site_space"] = ThresholdedUpdatesProtocol.default_site_space(
            kwargs["num_sites"], kwargs["epsilon"]
        )
    return kwargs


_REGISTRY: Dict[str, ProtocolSpec] = {}


def _register(spec: ProtocolSpec) -> None:
    key = spec.name.lower()
    if key in _REGISTRY:
        raise ValueError(f"duplicate spec name {spec.name!r}")
    _REGISTRY[key] = spec


for _spec in (
    ProtocolSpec(
        name="hh/P1", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=BatchedMisraGriesProtocol,
        summary="batched Misra-Gries summaries (Section 4.1)",
        params=(_NUM_SITES, _EPSILON,
                _p("num_counters", "int", "MG counters per site (default 2/ε)"),
                _RECORDS),
    ),
    ProtocolSpec(
        name="hh/P2", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=ThresholdedUpdatesProtocol,
        summary="per-element threshold updates (Section 4.2)",
        params=(_NUM_SITES, _EPSILON,
                _p("site_space", "int",
                   "bound per-site state with a SpaceSaving sketch of this size"),
                _RECORDS),
    ),
    ProtocolSpec(
        name="hh/P2ss", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=ThresholdedUpdatesProtocol,
        summary="P2 with the paper's O(m/ε) SpaceSaving site-space bound",
        params=(_NUM_SITES, _EPSILON,
                _p("site_space", "int",
                   "SpaceSaving counters per site (default ceil(m/ε))"),
                _RECORDS),
        prepare=_prepare_p2ss,
    ),
    ProtocolSpec(
        name="hh/P3", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=PrioritySamplingProtocol,
        summary="priority sampling without replacement (Section 4.3)",
        params=(_NUM_SITES, _EPSILON,
                _p("sample_size", "int", "coordinator sample size s"),
                _p("sample_constant", "float",
                   "leading constant of the default s"),
                _SEED, _RECORDS),
    ),
    ProtocolSpec(
        name="hh/P3wr", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=WithReplacementSamplingProtocol,
        summary="s independent with-replacement samplers (Section 4.3.1)",
        params=(_NUM_SITES, _EPSILON,
                _p("num_samplers", "int", "number of independent samplers s"),
                _p("sample_constant", "float",
                   "leading constant of the default s"),
                _SEED, _RECORDS),
    ),
    ProtocolSpec(
        name="hh/P4", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=RandomizedReportingProtocol,
        summary="randomized reporting (Section 4.4)",
        params=(_NUM_SITES, _EPSILON, _SEED, _RECORDS),
    ),
    ProtocolSpec(
        name="hh/exact", domain=DOMAIN_HEAVY_HITTERS,
        protocol_class=ExactForwardingProtocol,
        summary="zero-error forward-everything baseline",
        params=(_NUM_SITES,
                _p("epsilon", "float", "nominal ε (reported bounds only)"),
                _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/P1", domain=DOMAIN_MATRIX,
        protocol_class=BatchedFrequentDirectionsProtocol,
        summary="batched Frequent Directions (Section 5.1)",
        params=(_NUM_SITES, _DIMENSION, _EPSILON,
                _p("sketch_size", "int", "FD rows per site (default 4/ε)"),
                _p("coordinator_sketch_size", "int",
                   "FD rows at the coordinator"),
                _SVD_MODE, _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/P2", domain=DOMAIN_MATRIX,
        protocol_class=DeterministicDirectionProtocol,
        summary="deterministic direction thresholds (Section 5.2)",
        params=(_NUM_SITES, _DIMENSION, _EPSILON,
                _p("coordinator_sketch_size", "int",
                   "compress coordinator directions with FD of this size"),
                _SVD_MODE, _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/P3", domain=DOMAIN_MATRIX,
        protocol_class=MatrixPrioritySamplingProtocol,
        summary="squared-norm priority sampling (Section 5.3)",
        params=(_NUM_SITES, _DIMENSION, _EPSILON,
                _p("sample_size", "int", "coordinator sample size s"),
                _p("sample_constant", "float",
                   "leading constant of the default s"),
                _SEED, _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/P3wr", domain=DOMAIN_MATRIX,
        protocol_class=WithReplacementMatrixSamplingProtocol,
        summary="s independent with-replacement row samplers",
        params=(_NUM_SITES, _DIMENSION, _EPSILON,
                _p("num_samplers", "int", "number of independent samplers s"),
                _p("sample_constant", "float",
                   "leading constant of the default s"),
                _SEED, _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/P4", domain=DOMAIN_MATRIX,
        protocol_class=SingularDirectionUpdateProtocol,
        summary="randomized singular-direction updates (Appendix C; unsound)",
        params=(_NUM_SITES, _DIMENSION, _EPSILON, _SEED, _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/FD", domain=DOMAIN_MATRIX,
        protocol_class=CentralizedFDBaseline,
        summary="centralized Frequent Directions baseline (Table 1)",
        params=(_NUM_SITES, _DIMENSION,
                _p("sketch_size", "int", "coordinator FD rows ℓ", required=True),
                _SVD_MODE, _RECORDS),
    ),
    ProtocolSpec(
        name="matrix/SVD", domain=DOMAIN_MATRIX,
        protocol_class=CentralizedSVDBaseline,
        summary="centralized exact/rank-k SVD baseline (Table 1)",
        params=(_NUM_SITES, _DIMENSION,
                _p("rank", "int", "truncation rank k (default exact)"),
                _RECORDS),
    ),
):
    _register(_spec)


# -------------------------------------------------------------------- lookups
def available_specs(domain: Optional[str] = None) -> List[str]:
    """Registered spec names (optionally filtered to one domain), sorted."""
    names = [spec.name for spec in _REGISTRY.values()
             if domain is None or spec.domain == domain]
    return sorted(names)


def get_spec(name: str) -> ProtocolSpec:
    """Resolve a spec name (case-insensitive) to its :class:`ProtocolSpec`."""
    if not isinstance(name, str):
        raise TypeError(f"spec name must be a string, got {type(name).__name__}")
    key = name.strip().lower()
    spec = _REGISTRY.get(key)
    if spec is not None:
        return spec
    # A bare label ("P3") matches several domains; point at both spellings.
    suffix_matches = [candidate.name for candidate in _REGISTRY.values()
                      if candidate.name.lower().split("/", 1)[-1] == key]
    if suffix_matches:
        raise ValueError(
            f"ambiguous or unqualified spec {name!r}; "
            f"did you mean {' or '.join(sorted(suffix_matches))}?"
        )
    raise ValueError(
        f"unknown protocol spec {name!r}; available: "
        f"{', '.join(available_specs())}"
    )


def create(spec: str, **params: Any) -> DistributedProtocol:
    """Build a protocol instance from a registered spec name.

    Examples
    --------
    >>> from repro.api import create
    >>> protocol = create("hh/P2", num_sites=10, epsilon=0.05)
    >>> type(protocol).__name__
    'ThresholdedUpdatesProtocol'
    """
    return get_spec(spec).build(**params)


def registry_rows() -> List[Dict[str, str]]:
    """The registry as table rows (spec, class, required/optional params).

    Rendered by ``repro-experiments protocols`` and the README API
    reference.
    """
    rows = []
    for name in available_specs():
        spec = get_spec(name)
        rows.append({
            "spec": spec.name,
            "class": spec.protocol_class.__name__,
            "required": ", ".join(spec.required_params),
            "optional": ", ".join(spec.optional_params),
            "summary": spec.summary,
        })
    return rows


def domain_of(protocol: DistributedProtocol) -> str:
    """Classify a protocol instance into a registry domain."""
    if isinstance(protocol, WeightedHeavyHitterProtocol):
        return DOMAIN_HEAVY_HITTERS
    if isinstance(protocol, MatrixTrackingProtocol):
        return DOMAIN_MATRIX
    raise TypeError(
        f"{type(protocol).__name__} is neither a heavy-hitter nor a "
        "matrix-tracking protocol"
    )


def spec_name_for(protocol: DistributedProtocol) -> Optional[str]:
    """The registered spec name matching a protocol instance's class.

    Classes registered under several specs (P2 and its ``P2ss`` variant)
    resolve to the primary (shortest) name; unregistered classes give
    ``None``.
    """
    matches = [spec.name for spec in _REGISTRY.values()
               if spec.protocol_class is type(protocol)]
    if not matches:
        return None
    return min(matches, key=len)
