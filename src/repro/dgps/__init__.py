"""A single-machine Pregel-style DGPS: the programming model of Giraph /
GraphX / Gelly (the paper's Table 12 "Distributed Graph Processing
Systems" class), with classic vertex programs and a Graft-style debugger
(Table 13 "Specialized Debugger")."""

from repro.dgps.algorithms import (
    connected_components_spec,
    pagerank_spec,
    pregel_bfs_depth,
    pregel_connected_components,
    pregel_degree,
    pregel_max_value,
    pregel_pagerank,
    pregel_sssp,
    sssp_spec,
)
from repro.dgps.debugger import CapturedRun, captured_run
from repro.dgps.pregel import (
    PregelEngine,
    PregelError,
    PregelResult,
    PregelSpec,
    SuperstepStats,
    VertexContext,
    max_aggregator,
    min_aggregator,
    run_pregel,
    sum_aggregator,
)
