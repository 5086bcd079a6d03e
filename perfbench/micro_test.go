package main

import "testing"

// The layer microbenchmarks under the standard harness:
//
//	go test -run '^$' -bench . -benchmem
func BenchmarkVclockHandoff(b *testing.B)  { benchOps(b, handoffOps) }
func BenchmarkSimnetSendRecv(b *testing.B) { benchOps(b, sendRecvOps) }
func BenchmarkFDHeartbeat(b *testing.B)    { benchOps(b, heartbeatOps) }
func BenchmarkWALAppend(b *testing.B)      { benchOps(b, walAppendOps) }
func BenchmarkCTDecision(b *testing.B)     { benchOps(b, decideOps) }
func BenchmarkCheckerXAble(b *testing.B)   { benchOps(b, xableOps) }
func BenchmarkNewCluster(b *testing.B)     { benchOps(b, newClusterOps) }

func benchOps(b *testing.B, ops func(n int)) {
	b.ReportAllocs()
	ops(b.N)
}
