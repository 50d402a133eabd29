"""Exact-arithmetic Lie theory: E6, its involutions, Klein four subgroups,
fixed-point subalgebras and real forms, with mechanical verification."""
