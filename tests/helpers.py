"""Small readers of a run's trace that only the tests use."""


def edge_series(trace, column: str, node: int, neighbor: int):
    """Column `column` of edges.csv for the channel (node, neighbor), one
    value per step."""
    return trace.column(column, edge=True)[:, trace.edges.index((node, neighbor))]
