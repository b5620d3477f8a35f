package daos

import (
	"fmt"

	"daosim/internal/engine"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// kvAkey is the akey under which KV values live, as in libdaos's KV API.
var kvAkey = []byte("kv_value")

// KV is the flat key-value API over an object: each key is a dkey holding a
// single value, hashed across the object's shards.
type KV struct {
	Obj *Object
}

// OpenKV opens oid as a key-value store.
func (ct *Container) OpenKV(p *sim.Proc, oid vos.ObjectID) (*KV, error) {
	obj, err := ct.OpenObject(p, oid)
	if err != nil {
		return nil, err
	}
	return &KV{Obj: obj}, nil
}

// Put stores value under key.
func (kv *KV) Put(p *sim.Proc, key string, value []byte) error {
	return kv.Obj.Update(p, []engine.WriteExt{{
		Dkey:   []byte(key),
		Akey:   kvAkey,
		Data:   value,
		Single: true,
	}})
}

// Get fetches the value under key. Missing keys return ErrKeyNotFound.
func (kv *KV) Get(p *sim.Proc, key string) ([]byte, error) {
	data, err := kv.Obj.Fetch(p, []engine.ReadExt{{
		Dkey:   []byte(key),
		Akey:   kvAkey,
		Single: true,
	}}, 0)
	if err != nil {
		return nil, err
	}
	if data[0] == nil {
		return nil, fmt.Errorf("daos: key %q: %w", key, ErrKeyNotFound)
	}
	return data[0], nil
}

// GetAt fetches the value visible at a snapshot epoch.
func (kv *KV) GetAt(p *sim.Proc, key string, epoch vos.Epoch) ([]byte, error) {
	data, err := kv.Obj.Fetch(p, []engine.ReadExt{{
		Dkey:   []byte(key),
		Akey:   kvAkey,
		Single: true,
	}}, epoch)
	if err != nil {
		return nil, err
	}
	if data[0] == nil {
		return nil, fmt.Errorf("daos: key %q: %w", key, ErrKeyNotFound)
	}
	return data[0], nil
}

// List returns every key, merged across shards and sorted.
func (kv *KV) List(p *sim.Proc) ([]string, error) {
	dkeys, err := kv.Obj.ListDkeys(p)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(dkeys))
	for i, dk := range dkeys {
		out[i] = string(dk)
	}
	return out, nil
}

// ErrKeyNotFound reports a Get for an absent key.
var ErrKeyNotFound = vos.ErrNotFound
