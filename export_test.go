package ccam

// RunGoldenWorkload hands the external test package the fixed workload
// of TestPerOpPageCountsGolden.
var RunGoldenWorkload = runGoldenWorkload
