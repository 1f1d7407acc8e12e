package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// hot are the serving scan's functions whose start address mod 64 a
// placement line gives: a scan runs a few percent faster or slower with
// where the linker puts them, whatever the change. The last three are
// the exact re-check and top-k push of every lane the bound leaves.
var hot = []string{
	"index.(*Index).scanPartition",
	"scan.(*FastScan).ScanNativeInto",
	"scan.(*FastScan).scanBlocks",
	"scan.(*Scratch).bound",
	"scan.(*FastScan).processLive",
	"scan.offer",
	"topk.(*Heap).Push",
}

// placement returns the start address mod 64 of each of hot's functions
// in the output of go tool nm, -1 for one it does not list.
func placement(nm []byte) []int {
	offs := make([]int, len(hot))
	for i := range offs {
		offs[i] = -1
	}
	sc := bufio.NewScanner(bytes.NewReader(nm))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[1] != "T" {
			continue
		}
		for i, name := range hot {
			if strings.HasSuffix(f[2], "/"+name) {
				if addr, err := strconv.ParseUint(f[0], 16, 64); err == nil {
					offs[i] = int(addr % 64)
				}
			}
		}
	}
	return offs
}

// benchPlacement reads the placement of the benchmark binary a run
// built in dir.
func benchPlacement(dir string) ([]int, error) {
	out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, "benchmark", ".build", "benchmark")).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm: %v", err)
	}
	return placement(out), nil
}

// printPlacement prints both trees' placement lines, read from the
// binaries their first runs built, or why one could not be read.
func printPlacement(treeA, treeB string, stdout io.Writer) {
	a, errA := benchPlacement(treeA)
	b, errB := benchPlacement(treeB)
	if errA != nil || errB != nil {
		fmt.Fprintf(stdout, "placement unknown: A %v, B %v\n", errA, errB)
		return
	}
	fmt.Fprintln(stdout, placementLine("A", a, b))
	fmt.Fprintln(stdout, placementLine("B", b, a))
}

// placementLine is a tree's placement line, flagged "differs" when the
// other tree's placement is not the same.
func placementLine(side string, offs, other []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement %s", side)
	differs := false
	for i, off := range offs {
		fmt.Fprintf(&b, " %s%%64=%d", hot[i], off)
		differs = differs || off != other[i]
	}
	if differs {
		b.WriteString(" differs")
	}
	return b.String()
}
