package core

import (
	"sort"
	"strings"

	"risc1/internal/isa"
)

// The heat profile: runSlice counts every block dispatch against the
// block's leader word (heat). It is an observability surface only; no
// engine decision reads it.

// HeatEntry is one row of the execution-heat profile: a block leader and
// how many times a block dispatched there.
type HeatEntry struct {
	PC    uint32 `json:"pc"`
	Count uint64 `json:"count"`
}

// HeatProfile returns the non-zero block-heat table sorted hottest-first
// (ties by address). The step engine dispatches no blocks, so under it the
// table is empty.
func (c *CPU) HeatProfile() []HeatEntry {
	var out []HeatEntry
	for w, h := range c.heat {
		if h != 0 {
			out = append(out, HeatEntry{PC: c.codeOrg + uint32(4*w), Count: h})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// NGram is one measured dynamic opcode n-gram.
type NGram struct {
	Ops   []string `json:"ops"`
	Count uint64   `json:"count"`
}

// HotNGrams ranks the measured dynamic opcode n-grams (n clamped to 2 or
// 3) by estimated execution count and returns the top entries: an
// observability surface showing which instruction sequences run hottest.
func (c *CPU) HotNGrams(n, top int) []NGram {
	n = min(max(n, 2), 3)
	counts := c.nGramCounts(n)
	out := make([]NGram, 0, len(counts))
	for key, cnt := range counts {
		ops := make([]string, n)
		for k := n - 1; k >= 0; k-- {
			ops[k] = isa.Op(key & 0x7F).Name()
			key >>= 8
		}
		out = append(out, NGram{Ops: ops, Count: cnt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return strings.Join(out[i].Ops, " ") < strings.Join(out[j].Ops, " ")
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// nGramCounts estimates dynamic opcode n-gram counts as block heat times
// each block's static opcode sequence — exact while every dispatch runs its
// whole block, which all but the rare prefix runs at a batch cut do.
func (c *CPU) nGramCounts(n int) map[uint32]uint64 {
	out := map[uint32]uint64{}
	for w, b := range c.blocks {
		if b == nil || b.nInst == 0 {
			continue
		}
		h := c.heat[w]
		if h == 0 {
			continue
		}
		for j := 0; j+n <= len(b.costs); j++ {
			var key uint32
			for k := 0; k < n; k++ {
				key = key<<8 | uint32(b.costs[j+k].op)
			}
			out[key] += h
		}
	}
	return out
}

// TraceStats are the counters of the trace tier, a superblock engine the
// simulator no longer has. The type and CPU.TraceStats stay so that code
// written against them still builds; every field reads zero.
type TraceStats struct {
	Compiled      uint64
	SideExits     uint64
	Invalidations uint64
	Instructions  uint64
}

// TraceStats returns the zero TraceStats: there is no trace tier.
func (c *CPU) TraceStats() TraceStats { return TraceStats{} }
