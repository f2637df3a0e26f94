package sharded

// StealStride exposes the fairness bound to the external tests.
const StealStride = stealStride
