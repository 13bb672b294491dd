// Package repro is a from-scratch Go reproduction of "Rethinking TLB
// Designs in Virtualized Environments: A Very Large Part-of-Memory TLB"
// (Ryoo, Gulur, Song, John — ISCA 2017).
//
// The repository implements the paper's contribution — a memory-mapped,
// DRAM-resident L3 TLB whose entries are cached in the ordinary data
// caches — together with every substrate its evaluation needs: radix-4
// guest/host page tables with a 2D nested walker, page-structure caches
// and a nested TLB, SRAM L1/L2 TLBs, a three-level cache hierarchy, a
// bank/row-buffer DRAM timing model, synthetic SPEC/PARSEC/graph workload
// generators calibrated to the paper's Table 2, the Shared_L2 and SPARC
// TSB comparison schemes, and the linear performance model of Equations
// (2)–(5).
//
// Start with the README and the runnable Example_quickstart in
// internal/core, and regenerate the paper's tables and figures with
// cmd/experiments. The simbench module measures how fast the simulator
// itself runs.
package repro
