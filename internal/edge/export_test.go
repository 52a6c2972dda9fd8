package edge

// CheckMetricsGolden lets the cluster tests, which live in package
// edge_test to import edgecluster, pin their /metrics exposition with
// the single edge's normalisation.
var CheckMetricsGolden = checkMetricsGolden
