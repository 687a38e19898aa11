"""API002 fixture: facade imports and non-entrypoint names; clean."""

from repro.api import RunOptions, run_deployment, simulate
from repro.cluster import ClusterOptions
from repro.experiments.runner import ScaleProfile
from repro.fleet import FleetSpec

run = (simulate, run_deployment, RunOptions)
shapes = (ClusterOptions, ScaleProfile, FleetSpec)
