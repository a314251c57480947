"""Exact ell-matching counting, entropy counting bounds, correspondence and
proof-step audits, and seeded conjecture-search campaigns."""

from .bounds import (BoundEntry, BoundReport, binary_entropy, bound_report,
                     bregman_bound, cgt_bound, elementary_symmetric,
                     elementary_symmetric_log, genminc_bound, log2_int, log_ratio,
                     phi_wild, psi, reports_to_csv, thm_bipartite_bound,
                     thm_dregular_bound, thm_general_bound, umc_extremal_main_term,
                     wild_bound)
from .campaigns import CampaignConfig, CampaignReport, Violation, run_campaign
from .correspondence import AuditReport, verify_fibers
from .counting import (MarginalTable, MaskProfiler, enumerate_matchings, kdd_profile,
                       matching_marginals, matching_profile, profile_convolution,
                       profile_to_json, saturating_count, umc_extremal_profile)
from .errors import CapExceeded, ParseError
from .graphs import (BipartiteGraph, Graph, as_bipartite,
                     bipartite_double_cover, complete_bipartite, cycle_graph,
                     disjoint_union, emit_bipartite, emit_edge_list, emit_graph6,
                     parse_bipartite, parse_edge_list, parse_graph6, random_graph,
                     random_regular)
from .prooflab import (ChainAudit, DistributionAudit, Enumeration,
                       inequality_chain_audit, rk_formula_audit, zx_distribution_audit)

__version__ = "0.1.0"
