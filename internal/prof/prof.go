// Package prof backs the -cpuprofile and -memprofile flags of the
// command-line tools with runtime/pprof. A profile describes the host's
// run, not the simulation, so it never reaches a CSV or stdout.
package prof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, when cpuPath is not
// empty. The returned stop ends it and then writes a heap profile to
// memPath, when memPath is not empty. With both paths empty Start does
// nothing and stop returns nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", errors.Join(err, cpu.Close()))
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		return writeHeap(memPath)
	}, nil
}

// writeHeap writes a heap profile after a collection, so the in-use
// figures are current.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
