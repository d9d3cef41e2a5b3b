"""Wireless mesh backbone planner on grid candidate sites.

Plans multi-radio multi-channel mesh deployments: which sites become access
points, relays and gateways, how links are channelized, and how client
demand routes to the gateways. A mutation-driven multi-objective particle
swarm explores the feasible space against cost, coverage, link load balance
and gateway load balance; an exhaustive oracle validates tiny instances.
"""

__version__ = "0.1.0"
