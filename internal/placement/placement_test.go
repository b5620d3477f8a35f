package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"daosim/internal/vos"
)

func testMap() *PoolMap { return NewPoolMap(16, 8, 2) } // the NEXTGenIO shape

func TestClassEncoding(t *testing.T) {
	oid := EncodeOID(S2, 0x1234, 0x5678)
	if ClassOf(oid) != S2 {
		t.Fatalf("ClassOf = %v", ClassOf(oid))
	}
	if oid.Lo != 0x5678 || oid.Hi&0xFFFFFFFFFFFF != 0x1234 {
		t.Fatalf("oid fields corrupted: %v", oid)
	}
}

func TestClassLookup(t *testing.T) {
	for _, name := range ClassNames() {
		c, err := ClassByName(name)
		if err != nil {
			t.Fatalf("ClassByName(%s): %v", name, err)
		}
		c2, err := LookupClass(c.ID)
		if err != nil || c2.Name != name {
			t.Fatalf("round-trip %s: %v %v", name, c2, err)
		}
	}
	if _, err := ClassByName("S3"); err == nil {
		t.Fatal("unknown class name accepted")
	}
	if _, err := LookupClass(ClassID(3)); err == nil {
		t.Fatal("unknown class id accepted")
	}
}

func TestPoolMapShape(t *testing.T) {
	m := testMap()
	if len(m.Targets) != 128 {
		t.Fatalf("targets = %d, want 128", len(m.Targets))
	}
	if m.NumEngines() != 16 {
		t.Fatalf("engines = %d", m.NumEngines())
	}
	// Engines 0 and 1 share rank 0; 2 and 3 share rank 1.
	if m.Targets[0].Rank != 0 || m.Targets[8].Rank != 0 || m.Targets[16].Rank != 1 {
		t.Fatalf("rank assignment wrong: %+v %+v %+v", m.Targets[0], m.Targets[8], m.Targets[16])
	}
}

func TestLayoutShardCounts(t *testing.T) {
	m := testMap()
	cases := []struct {
		class ClassID
		want  int
	}{
		{S1, 1}, {S2, 2}, {S4, 4}, {S8, 8}, {SX, 128},
	}
	for _, c := range cases {
		oid := EncodeOID(c.class, 1, 42)
		l, err := Compute(oid, m)
		if err != nil {
			t.Fatal(err)
		}
		if l.NumShards() != c.want {
			t.Fatalf("class %#x shards = %d, want %d", c.class, l.NumShards(), c.want)
		}
	}
}

func TestLayoutDistinctTargets(t *testing.T) {
	m := testMap()
	for lo := uint64(0); lo < 100; lo++ {
		l, err := Compute(EncodeOID(S8, 0, lo), m)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, sh := range l.Shards {
			for _, tgt := range sh {
				if seen[tgt] {
					t.Fatalf("oid %d: duplicate target %d in layout", lo, tgt)
				}
				seen[tgt] = true
			}
		}
	}
}

func TestLayoutDeterministic(t *testing.T) {
	f := func(hi, lo uint64) bool {
		m := testMap()
		oid := EncodeOID(S4, hi%(1<<40), lo)
		a, err1 := Compute(oid, m)
		b, err2 := Compute(oid, m)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a.Shards {
			for r := range a.Shards[i] {
				if a.Shards[i][r] != b.Shards[i][r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutBalance(t *testing.T) {
	// Hash 2000 S1 objects over 128 targets: every target should get a
	// statistically sane share (mean 15.6; allow a wide band).
	m := testMap()
	counts := make([]int, len(m.Targets))
	for lo := uint64(0); lo < 2000; lo++ {
		l, err := Compute(EncodeOID(S1, 7, lo), m)
		if err != nil {
			t.Fatal(err)
		}
		counts[l.Leader(0)]++
	}
	for id, c := range counts {
		if c == 0 {
			t.Fatalf("target %d got no objects", id)
		}
		if c > 40 {
			t.Fatalf("target %d got %d of 2000 objects (mean 15.6): badly unbalanced", id, c)
		}
	}
}

func TestLayoutEngineBalanceSX(t *testing.T) {
	// An SX object must hit every engine exactly targetsPerEngine times.
	m := testMap()
	l, err := Compute(EncodeOID(SX, 0, 99), m)
	if err != nil {
		t.Fatal(err)
	}
	perEngine := map[int]int{}
	for _, sh := range l.Shards {
		perEngine[m.Targets[sh[0]].Engine]++
	}
	for e := 0; e < 16; e++ {
		if perEngine[e] != 8 {
			t.Fatalf("engine %d got %d shards, want 8", e, perEngine[e])
		}
	}
}

func TestFailureRemapsMinimally(t *testing.T) {
	m := testMap()
	type key struct{ lo uint64 }
	before := map[uint64]*Layout{}
	for lo := uint64(0); lo < 500; lo++ {
		l, err := Compute(EncodeOID(S2, 3, lo), m)
		if err != nil {
			t.Fatal(err)
		}
		before[lo] = l
	}
	// Fail one engine (targets 0..7).
	m.ExcludeEngine(0)
	moved, stayed := 0, 0
	for lo := uint64(0); lo < 500; lo++ {
		l, err := Compute(EncodeOID(S2, 3, lo), m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range l.Shards {
			if l.Shards[i][0] != before[lo].Shards[i][0] {
				// Only shards whose old target died may move.
				if before[lo].Shards[i][0] >= 8 {
					t.Fatalf("oid %d shard %d moved from healthy target %d", lo, i, before[lo].Shards[i][0])
				}
				if l.Shards[i][0] < 8 {
					t.Fatalf("oid %d shard %d placed on failed target %d", lo, i, l.Shards[i][0])
				}
				moved++
			} else {
				stayed++
			}
		}
	}
	if moved == 0 {
		t.Fatal("engine exclusion moved nothing; test is vacuous")
	}
	// Roughly 1/16 of shards lived on engine 0.
	frac := float64(moved) / float64(moved+stayed)
	if frac > 0.15 {
		t.Fatalf("%.1f%% of shards moved; remap is not minimal", frac*100)
	}
	_ = key{}
}

func TestRecoveryRestoresLayout(t *testing.T) {
	m := testMap()
	oid := EncodeOID(S4, 0, 77)
	orig, _ := Compute(oid, m)
	m.SetTargetState(orig.Leader(0), false)
	during, _ := Compute(oid, m)
	if during.Leader(0) == orig.Leader(0) {
		t.Fatal("layout kept a down target")
	}
	m.SetTargetState(orig.Leader(0), true)
	after, _ := Compute(oid, m)
	if after.Leader(0) != orig.Leader(0) {
		t.Fatal("recovered target did not regain its shard")
	}
}

func TestReplicatedClasses(t *testing.T) {
	m := testMap()
	l, err := Compute(EncodeOID(RP3G1, 0, 5), m)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumShards() != 1 || len(l.Shards[0]) != 3 {
		t.Fatalf("RP_3G1 layout = %v", l.Shards)
	}
	seen := map[int]bool{}
	for _, r := range l.Shards[0] {
		if seen[r] {
			t.Fatal("replicas share a target")
		}
		seen[r] = true
	}
}

func TestNoTargetsError(t *testing.T) {
	m := NewPoolMap(1, 2, 1)
	m.SetTargetState(0, false)
	m.SetTargetState(1, false)
	if _, err := Compute(EncodeOID(S1, 0, 1), m); err == nil {
		t.Fatal("layout on dead pool succeeded")
	}
}

func TestClassTooWideForPool(t *testing.T) {
	m := NewPoolMap(1, 2, 1) // 2 targets
	if _, err := Compute(EncodeOID(RP3G1, 0, 1), m); err == nil {
		t.Fatal("3-replica class on 2-target pool succeeded")
	}
	// SX adapts to the pool width instead of failing.
	l, err := Compute(EncodeOID(SX, 0, 1), m)
	if err != nil || l.NumShards() != 2 {
		t.Fatalf("SX on small pool: %v, %v", l, err)
	}
}

func TestVersionBumpOnStateChange(t *testing.T) {
	m := testMap()
	v := m.Version
	m.SetTargetState(3, false)
	if m.Version != v+1 {
		t.Fatal("version not bumped")
	}
	m.SetTargetState(3, false) // no-op
	if m.Version != v+1 {
		t.Fatal("no-op state change bumped version")
	}
}

// computeRef is Compute as it stood before it was made to allocate a
// constant number of times (UpTargets, a map used-set, a map per shard for
// fault domains). It is the oracle TestComputeMatchesReference holds
// Compute to.
func computeRef(oid vos.ObjectID, m *PoolMap) (*Layout, error) {
	class, err := LookupClass(ClassOf(oid))
	if err != nil {
		return nil, err
	}
	up := m.UpTargets()
	if len(up) == 0 {
		return nil, ErrNoTargets
	}
	shards := class.Shards
	if shards < 0 || shards > len(up) {
		shards = len(up)
	}
	need := shards * class.Replicas
	if need > len(up) {
		return nil, fmt.Errorf("placement: class %s needs %d live targets, pool has %d",
			class.Name, need, len(up))
	}
	perm := make([]int, len(m.Targets))
	for i := range perm {
		perm[i] = i
	}
	seed := splitmix64(oid.Hi ^ splitmix64(oid.Lo))
	for i := len(perm) - 1; i > 0; i-- {
		seed = splitmix64(seed)
		j := int(seed % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	start := jump(splitmix64(oid.Lo^0xD1B54A32D192ED03), len(perm))
	layout := &Layout{OID: oid, Class: class, MapVersion: m.Version}
	at := func(pos int) int { return perm[(start+pos)%len(perm)] }
	used := make(map[int]bool, need)
	fallback := need
	pickFallback := func() (int, error) {
		for ; fallback < len(perm); fallback++ {
			t := at(fallback)
			if m.Targets[t].Up && !used[t] {
				used[t] = true
				fallback++
				return t, nil
			}
		}
		return 0, ErrNoTargets
	}
	pick := func(home int) (int, error) {
		if t := at(home); m.Targets[t].Up && !used[t] {
			used[t] = true
			return t, nil
		}
		return pickFallback()
	}
	for s := 0; s < shards; s++ {
		replicas := make([]int, 0, class.Replicas)
		engines := make(map[int]bool, class.Replicas)
		for r := 0; r < class.Replicas; r++ {
			t, err := pick(s*class.Replicas + r)
			if err != nil {
				return nil, err
			}
			for class.Replicas > 1 && engines[m.Targets[t].Engine] {
				used[t] = false
				t, err = pickFallback()
				if err != nil {
					return nil, err
				}
			}
			engines[m.Targets[t].Engine] = true
			replicas = append(replicas, t)
		}
		layout.Shards = append(layout.Shards, replicas)
	}
	return layout, nil
}

// sameResult reports whether two (layout, error) results agree: equal
// layouts (OID, class, shards, map version) or equal error text.
func sameResult(a *Layout, aErr error, b *Layout, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return reflect.DeepEqual(a, b)
}

// TestComputeMatchesReference holds Compute and PoolMap.Layout to
// computeRef over random pool shapes, random down-target sets and every
// class, errors included.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	maps := 3000
	if testing.Short() {
		maps = 500
	}
	var ok, noTargets, tooNarrow int
	for i := 0; i < maps; i++ {
		m := NewPoolMap(1+rng.Intn(16), 1+rng.Intn(8), 1+rng.Intn(2))
		down := rng.Float64()
		for id := range m.Targets {
			if rng.Float64() < down {
				m.SetTargetState(id, false)
			}
		}
		for _, name := range ClassNames() {
			c, _ := ClassByName(name)
			oid := EncodeOID(c.ID, rng.Uint64()>>16, rng.Uint64())
			want, wantErr := computeRef(oid, m)
			got, err := Compute(oid, m)
			if !sameResult(got, err, want, wantErr) {
				t.Fatalf("map %d (%d targets, version %d) %s: Compute = %v, %v; reference = %v, %v",
					i, len(m.Targets), m.Version, name, got, err, want, wantErr)
			}
			cached, err := m.Layout(oid)
			if !sameResult(cached, err, want, wantErr) {
				t.Fatalf("map %d %s: Layout = %v, %v; reference = %v, %v", i, name, cached, err, want, wantErr)
			}
			switch {
			case wantErr == nil:
				ok++
			case errors.Is(wantErr, ErrNoTargets):
				noTargets++
			default:
				tooNarrow++
			}
		}
	}
	t.Logf("%d layouts, %d ErrNoTargets, %d too narrow", ok, noTargets, tooNarrow)
	if ok == 0 || noTargets == 0 || tooNarrow == 0 {
		t.Fatal("outcomes not all exercised")
	}
}

// TestLayoutCacheFollowsVersion pins the cache to the map version: one
// shared *Layout per object within a version, and after every state change
// (exclusions, single targets, restores) what Compute gives on the new map.
func TestLayoutCacheFollowsVersion(t *testing.T) {
	m := testMap()
	oids := []vos.ObjectID{EncodeOID(S1, 0, 1), EncodeOID(S4, 0, 2), EncodeOID(SX, 0, 3), EncodeOID(RP3G1, 0, 4)}
	check := func(step string) {
		t.Helper()
		for _, oid := range oids {
			got, err := m.Layout(oid)
			if err != nil {
				t.Fatalf("%s: Layout(%v): %v", step, oid, err)
			}
			if again, _ := m.Layout(oid); again != got {
				t.Fatalf("%s: Layout(%v) returned two layouts within version %d", step, oid, m.Version)
			}
			want, _ := Compute(oid, m)
			if !reflect.DeepEqual(got, want) || got.MapVersion != m.Version {
				t.Fatalf("%s: Layout(%v) = %v at version %d, Compute gives %v", step, oid, got, m.Version, want)
			}
		}
	}
	check("fresh map")
	before, _ := m.Layout(oids[0])
	m.ExcludeEngine(0)
	check("engine 0 excluded")
	if after, _ := m.Layout(oids[0]); after == before {
		t.Fatal("a version bump kept the old *Layout")
	}
	m.SetTargetState(before.Leader(0), false)
	check("S1 leader down")
	m.ExcludeEngine(before.Leader(0) / 8)
	check("S1 leader's engine excluded")
	for id := range m.Targets {
		m.SetTargetState(id, true)
		check(fmt.Sprintf("target %d restored", id))
	}
	if restored, _ := m.Layout(oids[0]); !reflect.DeepEqual(restored.Shards, before.Shards) {
		t.Fatalf("restored map places S1 on %v, first placed on %v", restored.Shards, before.Shards)
	}
}

// TestLayoutAllocations pins the costs the layout cache and Compute were
// built for: a cache hit allocates nothing, and Compute allocates the same
// few slices however many shards the class has.
func TestLayoutAllocations(t *testing.T) {
	m := testMap()
	oid := EncodeOID(SX, 0, 7)
	if _, err := m.Layout(oid); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Layout(oid) }); allocs != 0 {
		t.Errorf("cache hit: %v allocs per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { Compute(oid, m) }); allocs > 5 {
		t.Errorf("SX Compute on 128 targets: %v allocs per call, want at most 5", allocs)
	}
}
