"""The benchmark's workloads; each module documents why it is in the set."""
