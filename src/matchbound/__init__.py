"""Exact ell-matching counting, entropy counting bounds, correspondence and
proof-step audits, and seeded conjecture-search campaigns.

Each submodule is imported when one of its names is first read (PEP 562),
so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "bounds": """BoundEntry BoundReport binary_entropy bound_report bregman_bound cgt_bound
        elementary_symmetric genminc_bound log2_int log_ratio phi_wild psi reports_to_csv
        thm_bipartite_bound thm_dregular_bound thm_general_bound umc_extremal_main_term
        wild_bound""",
    "campaigns": "CampaignConfig CampaignReport Violation run_campaign",
    "correspondence": "AuditReport verify_fibers",
    "counting": """MarginalTable MaskProfiler enumerate_matchings kdd_profile
        matching_marginals matching_profile profile_convolution profile_to_json
        saturating_count umc_extremal_profile""",
    "errors": "CapExceeded ParseError",
    "graphs": """BipartiteGraph Graph as_bipartite bipartite_double_cover complete_bipartite
        cycle_graph emit_bipartite emit_graph6 parse_bipartite parse_edge_list parse_graph6
        random_regular""",
    "prooflab": """ChainAudit DistributionAudit Enumeration inequality_chain_audit
        rk_formula_audit zx_distribution_audit""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    """A public name or a submodule, imported on first use and kept."""
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
