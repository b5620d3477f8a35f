// Package placement implements DAOS object placement: the pool map
// (engines, targets, liveness), object classes (S1, S2, ... SX, plus
// replicated classes), and the deterministic algorithmic layout that maps an
// object's shards onto pool targets.
//
// Object classes are the DAOS analogue of Lustre file striping and are the
// primary variable in the paper's evaluation: S1 keeps an object on one
// target, S2 shards it over two, SX over every target in the pool. Layout
// is computed from a jump-consistent-hash seeded permutation of the pool
// map, so every client derives identical layouts and a target failure
// remaps only the shards that lived on it. A layout is computed once per
// pool map version and cached on the PoolMap, which every handle shares.
package placement

import (
	"errors"
	"fmt"

	"daosim/internal/vos"
)

// ClassID identifies an object class. It is encoded into the top 16 bits of
// an ObjectID's Hi word, as in DAOS.
type ClassID uint16

// Predefined object classes. SAny lets the container's default apply.
const (
	SAny ClassID = 0
	S1   ClassID = 1
	S2   ClassID = 2
	S4   ClassID = 4
	S8   ClassID = 8
	// SX shards over every up target in the pool.
	SX ClassID = 0xFFFF
	// RP2G1 keeps one shard group with 2-way replication (an extension
	// class exercised by the replication tests, not by the paper).
	RP2G1 ClassID = 0x8002
	// RP3G1 keeps one shard group with 3-way replication.
	RP3G1 ClassID = 0x8003
)

// Class describes a class's sharding and replication.
type Class struct {
	ID       ClassID
	Name     string
	Shards   int // -1 means "all up targets" (SX)
	Replicas int // copies per shard, >= 1
}

var classes = map[ClassID]Class{
	S1:    {ID: S1, Name: "S1", Shards: 1, Replicas: 1},
	S2:    {ID: S2, Name: "S2", Shards: 2, Replicas: 1},
	S4:    {ID: S4, Name: "S4", Shards: 4, Replicas: 1},
	S8:    {ID: S8, Name: "S8", Shards: 8, Replicas: 1},
	SX:    {ID: SX, Name: "SX", Shards: -1, Replicas: 1},
	RP2G1: {ID: RP2G1, Name: "RP_2G1", Shards: 1, Replicas: 2},
	RP3G1: {ID: RP3G1, Name: "RP_3G1", Shards: 1, Replicas: 3},
}

// LookupClass returns the class definition for id.
func LookupClass(id ClassID) (Class, error) {
	c, ok := classes[id]
	if !ok {
		return Class{}, fmt.Errorf("placement: unknown object class %#x", uint16(id))
	}
	return c, nil
}

// ClassByName resolves a class by its DAOS name (e.g. "S2", "SX").
func ClassByName(name string) (Class, error) {
	for _, c := range classes {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("placement: unknown object class %q", name)
}

// ClassNames returns the supported class names.
func ClassNames() []string {
	return []string{"S1", "S2", "S4", "S8", "SX", "RP_2G1", "RP_3G1"}
}

// EncodeOID builds an ObjectID carrying the class in Hi's top bits.
func EncodeOID(class ClassID, hi uint64, lo uint64) vos.ObjectID {
	if hi >= 1<<48 {
		panic("placement: oid hi field overflows 48 bits")
	}
	return vos.ObjectID{Hi: uint64(class)<<48 | hi, Lo: lo}
}

// ClassOf extracts the class from an ObjectID.
func ClassOf(oid vos.ObjectID) ClassID { return ClassID(oid.Hi >> 48) }

// Target is one VOS target (a slice of an engine).
type Target struct {
	ID     int
	Engine int // owning engine index
	Rank   int // server node index (engines share a node's NIC)
	Up     bool
}

// PoolMap is the versioned target directory every client caches. Targets
// change state only through SetTargetState and ExcludeEngine, which bump
// Version: Version is the key of the layout cache, so a target changed any
// other way would leave layouts placed on its old state.
type PoolMap struct {
	Targets []Target
	Version int

	// layouts holds Layout's results for layoutsVersion.
	layouts        map[vos.ObjectID]*Layout
	layoutsVersion int
}

// NewPoolMap builds a map for engines*targetsPerEngine targets, with
// enginesPerNode engines sharing each server rank.
func NewPoolMap(engines, targetsPerEngine, enginesPerNode int) *PoolMap {
	if engines <= 0 || targetsPerEngine <= 0 || enginesPerNode <= 0 {
		panic("placement: pool map dimensions must be positive")
	}
	m := &PoolMap{Version: 1}
	for e := 0; e < engines; e++ {
		for t := 0; t < targetsPerEngine; t++ {
			m.Targets = append(m.Targets, Target{
				ID:     e*targetsPerEngine + t,
				Engine: e,
				Rank:   e / enginesPerNode,
				Up:     true,
			})
		}
	}
	return m
}

// UpTargets returns the IDs of all live targets.
func (m *PoolMap) UpTargets() []int {
	var up []int
	for _, t := range m.Targets {
		if t.Up {
			up = append(up, t.ID)
		}
	}
	return up
}

// NumEngines returns the number of distinct engines in the map.
func (m *PoolMap) NumEngines() int {
	max := -1
	for _, t := range m.Targets {
		if t.Engine > max {
			max = t.Engine
		}
	}
	return max + 1
}

// SetTargetState marks a target up or down and bumps the map version.
func (m *PoolMap) SetTargetState(id int, up bool) {
	if id < 0 || id >= len(m.Targets) {
		panic(fmt.Sprintf("placement: no target %d", id))
	}
	if m.Targets[id].Up != up {
		m.Targets[id].Up = up
		m.Version++
	}
}

// ExcludeEngine marks every target of an engine down (engine failure).
func (m *PoolMap) ExcludeEngine(engine int) {
	for _, t := range m.Targets {
		if t.Engine == engine {
			m.SetTargetState(t.ID, false)
		}
	}
}

// jump is Lamping & Veach's jump consistent hash: maps key uniformly onto
// [0, n) with minimal disruption as n changes.
func jump(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// splitmix64 scrambles the OID into the permutation seed stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ErrNoTargets reports a layout request against a pool with no live targets.
var ErrNoTargets = errors.New("placement: no live targets")

// Layout is the computed placement of an object: Shards[i][r] is the target
// ID of replica r of shard i. A Layout is read-only: PoolMap.Layout shares
// one among every handle on the object at its map version.
type Layout struct {
	OID    vos.ObjectID
	Class  Class
	Shards [][]int
	// MapVersion records the pool map version the layout was computed
	// against, so clients know when to recompute.
	MapVersion int
}

// NumShards returns the shard count.
func (l *Layout) NumShards() int { return len(l.Shards) }

// Leader returns the primary replica target of shard i.
func (l *Layout) Leader(i int) int { return l.Shards[i][0] }

// Layout returns oid's layout on the map's current version. It is Compute's
// result, computed once per version and object and then shared: the cache
// empties when Version changes, and callers must not modify what it
// returns. Errors are not cached.
func (m *PoolMap) Layout(oid vos.ObjectID) (*Layout, error) {
	if m.layouts == nil {
		m.layouts = make(map[vos.ObjectID]*Layout)
	}
	if m.layoutsVersion != m.Version {
		clear(m.layouts)
		m.layoutsVersion = m.Version
	}
	if l, ok := m.layouts[oid]; ok {
		return l, nil
	}
	l, err := Compute(oid, m)
	if err != nil {
		return nil, err
	}
	m.layouts[oid] = l
	return l, nil
}

// Compute derives the layout of oid on the pool map. The algorithm builds a
// deterministic OID-seeded permutation of all targets (Fisher-Yates driven
// by splitmix64), then walks it selecting live targets: failures shift
// placement to the next candidate in the permutation, touching only the
// shards that lost their target. It allocates the same few slices whatever
// the class: the permutation, the used-set and the layout.
func Compute(oid vos.ObjectID, m *PoolMap) (*Layout, error) {
	class, err := LookupClass(ClassOf(oid))
	if err != nil {
		return nil, err
	}
	up := 0
	for _, t := range m.Targets {
		if t.Up {
			up++
		}
	}
	if up == 0 {
		return nil, ErrNoTargets
	}
	shards := class.Shards
	if shards < 0 || shards > up {
		shards = up
	}
	need := shards * class.Replicas
	if need > up {
		return nil, fmt.Errorf("placement: class %s needs %d live targets, pool has %d",
			class.Name, need, up)
	}

	// OID-seeded permutation over the full (up and down) target list so a
	// target coming back up restores its original shards.
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
	// Rotate the walk start so S1 objects spread by OID even when the
	// permutation prefix collides.
	start := jump(splitmix64(oid.Lo^0xD1B54A32D192ED03), len(perm))

	// Each shard replica has a fixed "home" position in the permutation;
	// positions beyond the home region form the fallback pool. A healthy
	// home never moves, and a failed home is replaced by the first unused
	// live fallback candidate, so failures remap only the shards that lost
	// their target (no cascading).
	at := func(pos int) int {
		if pos += start; pos >= len(perm) {
			pos -= len(perm) // start and pos are both below len(perm)
		}
		return perm[pos]
	}
	used := make([]bool, len(m.Targets))
	fallback := need // first position after the home region
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
	layout := &Layout{OID: oid, Class: class, Shards: make([][]int, shards), MapVersion: m.Version}
	flat := make([]int, need)
	for s := range layout.Shards {
		lo, hi := s*class.Replicas, (s+1)*class.Replicas
		replicas := flat[lo:hi:hi]
		for r := range replicas {
			t, err := pick(lo + r)
			if err != nil {
				return nil, err
			}
			// Replicas are fault-domain separated: no two copies of a
			// shard share an engine. Burn fallback candidates until the
			// domain differs (home picks stay stable for replica 0).
			for m.sharesEngine(replicas[:r], t) {
				used[t] = false // release; it may serve another shard
				t, err = pickFallback()
				if err != nil {
					return nil, err
				}
			}
			replicas[r] = t
		}
		layout.Shards[s] = replicas
	}
	return layout, nil
}

// sharesEngine reports whether target t lives on the engine of any target
// in chosen.
func (m *PoolMap) sharesEngine(chosen []int, t int) bool {
	for _, c := range chosen {
		if m.Targets[c].Engine == m.Targets[t].Engine {
			return true
		}
	}
	return false
}
