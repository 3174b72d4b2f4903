package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// checkSHA compares the SHA-256 of the workload's report bytes at the
// default seed with the one recorded in workloads.json, so that a change to
// simulation output fails before its speed is compared.
func checkSHA(r *runner, reportBytes []byte) error {
	sum := sha256.Sum256(reportBytes)
	got := hex.EncodeToString(sum[:])
	want, ok := r.cfg.ReportSHA256[r.name]
	if !ok {
		return mismatchf("report-sha256", "no report_sha256 recorded for %s; this build produces %s", r.name, got)
	}
	if got != want {
		return mismatchf("report-sha256", "%s reports at the default seed hash to %s, recorded %s", r.name, got, want)
	}
	return nil
}
