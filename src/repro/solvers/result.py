"""The result type shared by all CERTAINTY(q) solvers."""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Union

from repro.db.instance import DatabaseInstance

RepairSource = Union[DatabaseInstance, Callable[[], DatabaseInstance], None]


class LazyMinimalRepair:
    """A *picklable* lazy falsifying-repair certificate.

    Carries the ``(db, query)`` data needed to run the Lemma 9
    construction instead of capturing it in a closure, so results can
    cross process boundaries (pool workers shipping answers back)
    without forcing the O(db) certificate construction at pickle time.
    The construction still runs at most once per consumer process, on
    first ``falsifying_repair`` access.
    """

    __slots__ = ("db", "query")

    def __init__(self, db: DatabaseInstance, query) -> None:
        self.db = db
        self.query = query

    def __call__(self) -> DatabaseInstance:
        from repro.solvers.fixpoint import build_minimal_repair

        return build_minimal_repair(self.db, self.query)

    def __reduce__(self):
        return (LazyMinimalRepair, (self.db, self.query))


class CertaintyResult:
    """Outcome of a CERTAINTY(q) decision.

    Attributes
    ----------
    query:
        String rendering of the query.
    answer:
        ``True`` iff every repair satisfies the query ("yes"-instance).
    method:
        Which algorithm produced the answer (``"fo"``, ``"nl"``,
        ``"fixpoint"``, ``"sat"``, ``"brute_force"``, ...).
    witness_constant:
        For "yes" answers, when available: a constant ``c`` such that
        every repair has an accepted path from ``c`` (Lemma 7).
    falsifying_repair:
        For "no" answers, when available: a repair that does not satisfy
        the query -- a certificate that can be checked independently.
        Solvers may supply it *lazily* as a zero-argument callable; the
        certificate is then constructed on first access (the incremental
        engine answers update streams without paying the Lemma 9 repair
        construction for certificates nobody reads) and cached.
    details:
        Method-specific diagnostics (iteration counts, clause counts, ...).
    """

    __slots__ = (
        "query",
        "answer",
        "method",
        "witness_constant",
        "_repair_source",
        "details",
    )

    def __init__(
        self,
        query: str,
        answer: bool,
        method: str,
        witness_constant: Optional[Hashable] = None,
        falsifying_repair: RepairSource = None,
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        self.query = query
        self.answer = answer
        self.method = method
        self.witness_constant = witness_constant
        self._repair_source = falsifying_repair
        self.details: Dict[str, object] = details if details is not None else {}

    @property
    def falsifying_repair(self) -> Optional[DatabaseInstance]:
        if callable(self._repair_source):
            self._repair_source = self._repair_source()
        return self._repair_source

    @property
    def has_lazy_repair(self) -> bool:
        """True iff the certificate exists but has not been built yet."""
        return callable(self._repair_source)

    def copy(self) -> "CertaintyResult":
        """A shallow copy with its own ``details`` dict.

        The certificate source is shared, so a lazy certificate stays
        lazy in both; resolving or stripping one copy leaves the other
        as it was.
        """
        return CertaintyResult(
            self.query,
            self.answer,
            self.method,
            self.witness_constant,
            self._repair_source,
            dict(self.details),
        )

    def strip(self) -> "CertaintyResult":
        """Drop the falsifying-repair certificate; returns ``self``.

        For consumers that only read ``.answer``: an unread certificate
        costs an O(db) construction the moment the result is compared,
        resolved, or (for non-picklable sources) pickled.  Batch workers
        strip results when the caller opted out of certificates, so
        nothing heavier than the answer crosses the pool boundary.
        """
        self._repair_source = None
        return self

    def rehydrate(self, db, query) -> "CertaintyResult":
        """Re-attach a lazy certificate after a stripped wire hop.

        The receiving half of the process-transport contract
        (:mod:`repro.serving.transport`): shard subprocesses strip lazy
        falsifying-repair certificates before pickling (an unread
        certificate is O(db) on the wire), and the router side calls
        this with its own copy of the same instance.  The Lemma 9
        construction is deterministic in the facts, so the certificate
        built here on first access equals the one the in-process lazy
        path would have produced.  A no-op unless this is a stripped
        "no" answer and *db* is known.
        """
        if not self.answer and self._repair_source is None and db is not None:
            self._repair_source = LazyMinimalRepair(db, query)
        return self

    def __getstate__(self):
        # Keep data-carrying lazy certificates (LazyMinimalRepair) lazy
        # across process boundaries; resolve only opaque callables
        # (closures are not picklable; pool workers ship results back).
        source = self._repair_source
        if callable(source) and not isinstance(source, LazyMinimalRepair):
            source = self.falsifying_repair
        return (
            self.query,
            self.answer,
            self.method,
            self.witness_constant,
            source,
            self.details,
        )

    def __setstate__(self, state) -> None:
        (
            self.query,
            self.answer,
            self.method,
            self.witness_constant,
            self._repair_source,
            self.details,
        ) = state

    def __eq__(self, other: object) -> bool:
        # Field-wise equality, as when this was a dataclass.  Comparing
        # resolves lazy certificates: the former field held the instance.
        if not isinstance(other, CertaintyResult):
            return NotImplemented
        return (
            self.query == other.query
            and self.answer == other.answer
            and self.method == other.method
            and self.witness_constant == other.witness_constant
            and self.falsifying_repair == other.falsifying_repair
            and self.details == other.details
        )

    # Unhashable, matching the former non-frozen dataclass.
    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return self.answer

    def __repr__(self) -> str:
        return (
            "CertaintyResult(query={!r}, answer={!r}, method={!r}, "
            "witness_constant={!r}, details={!r})".format(
                self.query,
                self.answer,
                self.method,
                self.witness_constant,
                self.details,
            )
        )

    def __str__(self) -> str:
        verdict = "certain" if self.answer else "not certain"
        extra = ""
        if self.answer and self.witness_constant is not None:
            extra = " (witness start: {})".format(self.witness_constant)
        if not self.answer and self._repair_source is not None:
            if callable(self._repair_source):
                extra = " (falsifying repair available)"
            else:
                extra = " (falsifying repair with {} facts)".format(
                    len(self._repair_source)
                )
        return "CERTAINTY({}) = {} via {}{}".format(
            self.query, verdict, self.method, extra
        )
