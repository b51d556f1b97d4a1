"""The unified, *versioned* ``Report`` protocol.

Every flow in the ecosystem ends in a report object; historically each
grew its own ad-hoc shape (dataclasses with bespoke render methods,
plain dicts, mailbox word lists).  The protocol below is the common
surface every report now conforms to:

* ``to_json()`` — a JSON-serializable dict with *stable field names*
  (the contract consumed by the disk cache, the CLI ``--json`` exports
  and the datapack provenance records);
* ``summary()`` — a one-line human summary.

Conforming types: :class:`~repro.fabric.nxmap.FlowReport`,
:class:`~repro.radhard.campaign.CampaignReport`,
:class:`~repro.hls.characterization.eucalyptus.CharacterizationRun` and
:class:`~repro.boot.report.BootReport`.

Wire format versioning
----------------------

:func:`report_json_text` renders the *wire form* of a report — an
envelope carrying ``schema_version``, the report's registered ``kind``
and the ``payload`` (the raw ``to_json()`` dict).  :func:`parse_report`
is the inverse: it checks the schema version (rejecting unknown *major*
versions with :class:`ReportSchemaError`), looks the kind up in the
registry populated by :func:`register_report`, and dispatches to the
right class's ``from_json``.  Service clients and on-disk cache objects
can therefore evolve: a minor-version bump adds fields (old parsers
ignore them), a major-version bump is an explicit break.

Kinds registered without a decoder (reports whose live object cannot be
fully reconstructed from JSON, e.g. the mega-campaign report with its
shard plan) parse into a :class:`GenericReport` — a dict-backed view
that round-trips the wire bytes exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Protocol, \
    Tuple, Union, runtime_checkable

#: Wire-format version of the report envelope.  ``major.minor``: minor
#: bumps add fields (forward-compatible, accepted by older parsers of
#: the same major), major bumps are breaking and rejected by
#: :func:`parse_report`.
SCHEMA_VERSION = "1.0"


class ReportSchemaError(Exception):
    """A report wire payload this toolchain version cannot interpret."""


@runtime_checkable
class Report(Protocol):
    """Structural protocol for flow result objects."""

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable dict with stable field names."""
        ...  # pragma: no cover - protocol

    def summary(self) -> str:
        """One-line human summary."""
        ...  # pragma: no cover - protocol


# -- kind registry ----------------------------------------------------------

#: kind -> decoder reviving a payload dict (None = GenericReport view).
_DECODERS: Dict[str, Optional[Callable[[Dict[str, Any]], Any]]] = {}
#: report class -> registered kind (for envelope rendering).
_KINDS: Dict[type, str] = {}
_REGISTRY_SEEDED = False


def register_report(kind: str, cls: type, *, decodes: bool = True) -> type:
    """Register a report type on the wire registry under ``kind``.

    ``kind`` names the report on the wire (the envelope's ``kind``
    field).  With ``decodes=True`` the class must define a ``from_json``
    classmethod, which :func:`parse_report` dispatches to; with
    ``decodes=False`` the kind is serializable but parses into a
    :class:`GenericReport` (byte-preserving dict view).
    """
    if decodes and not callable(getattr(cls, "from_json", None)):
        raise ReportSchemaError(
            f"{cls.__name__} registered as {kind!r} without from_json")
    _DECODERS[kind] = getattr(cls, "from_json") if decodes else None
    _KINDS[cls] = kind
    return cls


def _seed_registry() -> None:
    """Register the built-in report kinds.

    Centralized (rather than decorating each class in its module)
    because ``repro.core``'s package init imports the producer
    packages: a producer importing this module back at class-definition
    time would cycle.  Lazy, so parsing sees every conforming class
    without the caller having imported its module first.
    """
    global _REGISTRY_SEEDED
    if _REGISTRY_SEEDED:
        return
    _REGISTRY_SEEDED = True
    from ..api import HlsJobReport, JobResult
    from ..boot.report import BootReport
    from ..fabric.eco import EcoReport
    from ..fabric.nxmap import FlowReport
    from ..hls.characterization.eucalyptus import (
        CharacterizationRun,
        SweepReport,
    )
    from ..radhard.campaign import CampaignReport
    from ..radhard.mega import MegaReport
    register_report("flow", FlowReport)
    register_report("eco", EcoReport)
    register_report("seu", CampaignReport)
    register_report("characterize", SweepReport)
    register_report("characterization-run", CharacterizationRun)
    register_report("boot", BootReport)
    register_report("hls", HlsJobReport)
    # Reports carrying live objects (shard plans, job specs) that JSON
    # cannot fully rebuild: serialize normally, parse as GenericReport.
    register_report("mega", MegaReport, decodes=False)
    register_report("job", JobResult, decodes=False)


def report_kind(report: Report) -> str:
    """The registered wire kind of ``report`` (fallback: class name)."""
    _seed_registry()
    if isinstance(report, GenericReport):
        return report.kind
    kind = _KINDS.get(type(report))
    if kind is not None:
        return kind
    return type(report).__name__.lower()


def registered_kinds() -> Tuple[str, ...]:
    """Every kind the parse registry knows, sorted."""
    _seed_registry()
    return tuple(sorted(_DECODERS))


@dataclass
class GenericReport:
    """Dict-backed view of a report whose class has no JSON decoder.

    ``to_json`` returns the payload verbatim, so the wire bytes of a
    parsed report re-render identically — the round-trip contract holds
    even for kinds that cannot rebuild their live object.
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return self.payload

    def summary(self) -> str:
        return f"{self.kind} report ({len(self.payload)} fields)"


def report_json_text(report: Report) -> str:
    """Canonical wire text of a report (sorted keys, compact).

    Byte-stable for equal reports — the equality form the cold-vs-warm
    cache tests, the service's coalesced-subscriber contract and the CI
    cache-smoke gate compare.  The envelope carries ``schema_version``
    and the registered ``kind`` so :func:`parse_report` can revive it.
    """
    envelope = {"schema_version": SCHEMA_VERSION,
                "kind": report_kind(report),
                "payload": report.to_json()}
    return json.dumps(envelope, sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def _split_version(version: str) -> Tuple[int, int]:
    try:
        major_text, _, minor_text = str(version).partition(".")
        return int(major_text), int(minor_text or 0)
    except ValueError:
        raise ReportSchemaError(
            f"malformed schema_version {version!r}") from None


def parse_report(wire: Union[str, bytes, Mapping[str, Any]]) -> Any:
    """Revive a report from its wire form (text or decoded envelope).

    Registry-based dispatch: the envelope's ``kind`` picks the class
    registered by :func:`register_report` and its ``from_json`` rebuilds
    the object (or a :class:`GenericReport` when the kind is registered
    without a decoder).  An unknown *major* schema version, a missing
    envelope field or an unregistered kind raises
    :class:`ReportSchemaError` — a typed error service clients can
    distinguish from transport failures.
    """
    _seed_registry()
    if isinstance(wire, (str, bytes)):
        try:
            envelope = json.loads(wire)
        except ValueError as error:
            raise ReportSchemaError(f"undecodable report text: {error}")
    else:
        envelope = wire
    if not isinstance(envelope, Mapping):
        raise ReportSchemaError(
            f"report envelope must be an object, got "
            f"{type(envelope).__name__}")
    for field_name in ("schema_version", "kind", "payload"):
        if field_name not in envelope:
            raise ReportSchemaError(
                f"report envelope missing {field_name!r}")
    major, _minor = _split_version(envelope["schema_version"])
    current_major, _ = _split_version(SCHEMA_VERSION)
    if major != current_major:
        raise ReportSchemaError(
            f"unsupported report schema major version "
            f"{envelope['schema_version']!r} "
            f"(this toolchain speaks {SCHEMA_VERSION})")
    kind = envelope["kind"]
    if kind not in _DECODERS:
        raise ReportSchemaError(
            f"unknown report kind {kind!r} "
            f"(known: {', '.join(sorted(_DECODERS))})")
    decoder = _DECODERS[kind]
    payload = dict(envelope["payload"])
    if decoder is None:
        return GenericReport(kind=kind, payload=payload)
    return decoder(payload)


#: Registry-dispatching parser, attached for discoverability as
#: ``Report.parse`` would be were ``Report`` a concrete base class.
#: (``Report`` stays a Protocol so conformance remains structural;
#: adding a member to a runtime-checkable Protocol would change every
#: ``isinstance`` check.)
parse = parse_report
