"""vpdgate: location- and time-dependent virtual private databases.

Rewrites queries over a logistics dataset into per-subject views whose
contents depend on who asks, from where, and when, and grants/revokes
access as subjects move along planned carrier routes.
"""

from .engine import QueryOutcome, explain, privacy_residual, run_query
from .errors import (
    IntegrityError,
    NoChainError,
    ParseError,
    QuerySyntaxError,
    ScenarioError,
    UnboundContextKeyError,
    UnknownColumnError,
    UnknownSubjectError,
    UnknownTableError,
    UnsupportedFeatureError,
    VpdGateError,
)
from .lifecycle import (
    AccessEvent,
    GrantState,
    build_vpd,
    check_validity,
    on_context_update,
)
from .linkage import (
    JoinChain,
    RouteRange,
    in_range,
    link,
    location_range,
    organization,
    route_verdict,
    subordinates,
    workflow,
)
from .queryir import Query, RowSet, evaluate, parse_query, render_query
from .relstore import (
    Dataset,
    ValidationReport,
    dump_dataset,
    load_bundled,
    load_dataset,
    validate_dataset,
)
from .sessionctx import SessionContext, context_lookup, open_session
from .simharness import Scenario, load_scenario, run_scenario, validate_scenario
from .vpdrewrite import (
    DomainPolicy,
    Privilege,
    VpdDefinition,
    entails,
    expand_supervisor,
    infer_privileges,
    materialize,
    rewrite,
)

__version__ = "0.1.0"
