package main

import (
	"reflect"
	"testing"

	"daosim/internal/ior"
	"daosim/internal/placement"
)

// TestParseNodes is the table-driven contract of the -nodes flag: single
// counts, sweep lists, whitespace, stray commas, duplicates (collapsed but
// still sweep-shaped), and every rejection path.
func TestParseNodes(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		want  []int // nil means an error is expected
		sweep bool
	}{
		{"single", "4", []int{4}, false},
		{"single trailing comma", "8,", []int{8}, false},
		{"sweep", "1,2,4,8", []int{1, 2, 4, 8}, true},
		{"whitespace", " 1 ,\t2 , 4 ", []int{1, 2, 4}, true},
		{"doubled comma", "1,,2", []int{1, 2}, true},
		{"duplicates collapse", "1,2,2,1,4", []int{1, 2, 4}, true},
		{"duplicate order kept", "8,1,8", []int{8, 1}, true},
		// "8,8" collapses to one point but stays a sweep: it must keep
		// sweep output and sweep flag validation, not fall back to the
		// single-run path.
		{"all duplicates still sweep", "8,8", []int{8}, true},
		{"plus sign accepted", "+4", []int{4}, false},
		{"empty", "", nil, false},
		{"only whitespace", "  ", nil, false},
		{"only commas", ",,,", nil, false},
		{"non-numeric", "x", nil, false},
		{"mixed non-numeric", "1,x,2", nil, false},
		{"float", "1.5", nil, false},
		{"zero", "0", nil, false},
		{"negative", "-3", nil, false},
		{"negative in list", "4,-1", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, sweep, err := parseNodes(tc.in)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseNodes(%q) = %v, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseNodes(%q): %v", tc.in, err)
			}
			if !reflect.DeepEqual(got, tc.want) || sweep != tc.sweep {
				t.Fatalf("parseNodes(%q) = %v, sweep=%v; want %v, sweep=%v", tc.in, got, sweep, tc.want, tc.sweep)
			}
		})
	}
}

// TestParseSize covers the IOR-style size suffixes the sweep geometry flags
// accept.
func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"4k", 4 << 10},
		{"2m", 2 << 20},
		{"1g", 1 << 30},
		{"16M", 16 << 20},
		{"512", 512},
		{" 2m ", 2 << 20},
	}
	for _, tc := range cases {
		if got := parseSize(tc.in); got != tc.want {
			t.Errorf("parseSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestSweepRejectsCollectiveOnce pins that a sweep validates its IOR flags
// once, before the runner builds a testbed for any point: collective I/O
// outside shared-file MPI-I/O fails with IOR's own message, not with one
// joined failure per point.
func TestSweepRejectsCollectiveOnce(t *testing.T) {
	sx, err := placement.ClassByName("SX")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		api ior.API
		fpp bool
	}{{ior.APIPosix, false}, {ior.APIDFS, false}, {ior.APIHDF5, false}, {ior.APIMPIIO, true}} {
		err := runSweep([]int{1, 2}, 8, tc.api, sx, tc.fpp, 1<<20, 1<<20, 1, 1, true, 1, 0, nil)
		if err == nil || err.Error() != "ior: collective I/O requires MPI-I/O on a shared file" {
			t.Errorf("%s fpp=%v collective sweep: err = %v", tc.api, tc.fpp, err)
		}
	}
}
