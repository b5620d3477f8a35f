// Package dfs implements the DAOS File System (libdfs): a POSIX-style
// namespace encoded in DAOS objects. Directories are KV-style objects
// mapping entry names to records; files are byte-array objects striped over
// their class's shards in container-chunk-size cells. A superblock record
// under the root object carries the filesystem defaults, as in DFS.
//
// This is the paper's "DFS" interface (IOR's DFS backend): applications do
// file I/O, but every operation maps directly onto object RPCs with no
// kernel involvement. DFuse (package dfuse) adds the kernel FUSE mount on
// top of this package.
package dfs

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path"
	"strings"

	"daosim/internal/daos"
	"daosim/internal/engine"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist = errors.New("dfs: no such file or directory")
	ErrExist    = errors.New("dfs: file exists")
	ErrNotDir   = errors.New("dfs: not a directory")
	ErrIsDir    = errors.New("dfs: is a directory")
	ErrNotEmpty = errors.New("dfs: directory not empty")
	ErrBadMount = errors.New("dfs: not a DFS container")
)

// EntryType distinguishes namespace records.
type EntryType uint8

// Entry types.
const (
	TypeFile EntryType = iota + 1
	TypeDir
)

// entry is one directory record.
type entry struct {
	Type  EntryType
	OID   vos.ObjectID
	Chunk int64
	Class placement.ClassID
	Mtime int64 // virtual ns at last metadata change
}

// superblock is the filesystem header stored under the root object.
type superblock struct {
	Magic   uint64
	Version int
	Chunk   int64
	Class   placement.ClassID
}

const sbMagic = 0xDF5DF5DF5DF5DF5

// Reserved names inside the root object.
var (
	sbDkey    = []byte(".dfs_superblock")
	entryAkey = []byte("entry")
)

// rootOID is the well-known root directory object (metadata class S1).
var rootOID = placement.EncodeOID(placement.S1, 0, 1)

// FS is a mounted filesystem.
type FS struct {
	cont *daos.Container
	sb   superblock
	root *daos.Object
	// Lookups counts directory entry fetch RPCs (observability for the
	// metadata-path benchmarks).
	Lookups int64
}

// Mount opens (formatting on first use) the DFS namespace in a container.
// The container's Class and ChunkSize props become the defaults for new
// files, as dfs_cont_create records them.
func Mount(p *sim.Proc, ct *daos.Container) (*FS, error) {
	root, err := ct.OpenObject(p, rootOID)
	if err != nil {
		return nil, fmt.Errorf("dfs: mount: %w", err)
	}
	fs := &FS{cont: ct, root: root}
	raw, err := root.Fetch(p, []engine.ReadExt{{Dkey: sbDkey, Akey: entryAkey, Single: true}}, 0)
	if err != nil {
		return nil, fmt.Errorf("dfs: mount: %w", err)
	}
	if raw[0] == nil {
		// Fresh container: format.
		fs.sb = superblock{
			Magic:   sbMagic,
			Version: 1,
			Chunk:   ct.Props.ChunkSize,
			Class:   ct.Props.Class,
		}
		if err := root.Update(p, []engine.WriteExt{{
			Dkey: sbDkey, Akey: entryAkey, Data: encode(fs.sb), Single: true,
		}}); err != nil {
			return nil, fmt.Errorf("dfs: format: %w", err)
		}
		return fs, nil
	}
	if err := decode(raw[0], &fs.sb); err != nil || fs.sb.Magic != sbMagic {
		return nil, ErrBadMount
	}
	return fs, nil
}

// Chunk returns the filesystem's default chunk size.
func (fs *FS) Chunk() int64 { return fs.sb.Chunk }

// Class returns the filesystem's default object class for files.
func (fs *FS) Class() placement.ClassID { return fs.sb.Class }

func encode(v interface{}) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic("dfs: encode: " + err.Error())
	}
	return buf.Bytes()
}

func decode(raw []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// splitPath normalizes and splits an absolute path into components.
func splitPath(p string) ([]string, error) {
	cleaned := path.Clean("/" + p)
	if cleaned == "/" {
		return nil, nil
	}
	return strings.Split(strings.TrimPrefix(cleaned, "/"), "/"), nil
}

// lookupDir walks to the directory object holding the path's parent,
// returning the parent handle and the leaf name.
func (fs *FS) lookupDir(p *sim.Proc, fullPath string) (*daos.Object, string, error) {
	comps, err := splitPath(fullPath)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return fs.root, "", nil
	}
	dir := fs.root
	for _, comp := range comps[:len(comps)-1] {
		ent, err := fs.fetchEntry(p, dir, comp)
		if err != nil {
			return nil, "", err
		}
		if ent.Type != TypeDir {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, comp)
		}
		dir, err = fs.cont.OpenObject(p, ent.OID)
		if err != nil {
			return nil, "", err
		}
	}
	return dir, comps[len(comps)-1], nil
}

// fetchEntry reads one directory record.
func (fs *FS) fetchEntry(p *sim.Proc, dir *daos.Object, name string) (entry, error) {
	fs.Lookups++
	raw, err := dir.Fetch(p, []engine.ReadExt{{Dkey: []byte(name), Akey: entryAkey, Single: true}}, 0)
	if err != nil {
		return entry{}, err
	}
	if raw[0] == nil {
		return entry{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	var ent entry
	if err := decode(raw[0], &ent); err != nil {
		return entry{}, fmt.Errorf("dfs: corrupt entry %q: %v", name, err)
	}
	return ent, nil
}

// storeEntry writes one directory record.
func (fs *FS) storeEntry(p *sim.Proc, dir *daos.Object, name string, ent entry) error {
	return dir.Update(p, []engine.WriteExt{{
		Dkey: []byte(name), Akey: entryAkey, Data: encode(ent), Single: true,
	}})
}

// Mkdir creates a directory. The parent must exist.
func (fs *FS) Mkdir(p *sim.Proc, dirPath string) error {
	parent, name, err := fs.lookupDir(p, dirPath)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("%w: /", ErrExist)
	}
	if _, err := fs.fetchEntry(p, parent, name); err == nil {
		return fmt.Errorf("%w: %s", ErrExist, dirPath)
	}
	ent := entry{
		Type:  TypeDir,
		OID:   fs.cont.AllocOID(placement.S1), // directory metadata stays on one target
		Mtime: p.Now().Nanoseconds(),
	}
	return fs.storeEntry(p, parent, name, ent)
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p *sim.Proc, dirPath string) error {
	comps, err := splitPath(dirPath)
	if err != nil {
		return err
	}
	cur := "/"
	for _, comp := range comps {
		cur = path.Join(cur, comp)
		if err := fs.Mkdir(p, cur); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// CreateOpts override the filesystem defaults for one file.
type CreateOpts struct {
	Class placement.ClassID // SAny: use the FS default
	Chunk int64             // 0: use the FS default
}

// Create makes a new file, failing if it exists.
func (fs *FS) Create(p *sim.Proc, filePath string, opts CreateOpts) (*File, error) {
	parent, name, err := fs.lookupDir(p, filePath)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, ErrIsDir
	}
	if _, err := fs.fetchEntry(p, parent, name); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrExist, filePath)
	}
	class := opts.Class
	if class == placement.SAny {
		class = fs.sb.Class
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = fs.sb.Chunk
	}
	ent := entry{
		Type:  TypeFile,
		OID:   fs.cont.AllocOID(class),
		Chunk: chunk,
		Class: class,
		Mtime: p.Now().Nanoseconds(),
	}
	if err := fs.storeEntry(p, parent, name, ent); err != nil {
		return nil, err
	}
	return fs.openEntry(p, filePath, ent)
}

// Open opens an existing file.
func (fs *FS) Open(p *sim.Proc, filePath string) (*File, error) {
	parent, name, err := fs.lookupDir(p, filePath)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, ErrIsDir
	}
	ent, err := fs.fetchEntry(p, parent, name)
	if err != nil {
		return nil, err
	}
	if ent.Type != TypeFile {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, filePath)
	}
	return fs.openEntry(p, filePath, ent)
}

// OpenOrCreate opens the file, creating it when absent (O_CREAT without
// O_EXCL).
func (fs *FS) OpenOrCreate(p *sim.Proc, filePath string, opts CreateOpts) (*File, error) {
	f, err := fs.Open(p, filePath)
	if errors.Is(err, ErrNotExist) {
		f, err = fs.Create(p, filePath, opts)
		if errors.Is(err, ErrExist) {
			return fs.Open(p, filePath)
		}
	}
	return f, err
}

func (fs *FS) openEntry(p *sim.Proc, filePath string, ent entry) (*File, error) {
	obj, err := fs.cont.OpenObject(p, ent.OID)
	if err != nil {
		return nil, err
	}
	return &File{
		fs:   fs,
		path: filePath,
		ent:  ent,
		arr:  &daos.Array{Obj: obj, ChunkSize: ent.Chunk},
	}, nil
}

// Info describes a namespace entry.
type Info struct {
	Name  string
	Type  EntryType
	Size  int64
	Class placement.ClassID
	Chunk int64
}

// Stat describes the entry at a path. Directory sizes are 0.
func (fs *FS) Stat(p *sim.Proc, anyPath string) (Info, error) {
	comps, err := splitPath(anyPath)
	if err != nil {
		return Info{}, err
	}
	if len(comps) == 0 {
		return Info{Name: "/", Type: TypeDir}, nil
	}
	parent, name, err := fs.lookupDir(p, anyPath)
	if err != nil {
		return Info{}, err
	}
	ent, err := fs.fetchEntry(p, parent, name)
	if err != nil {
		return Info{}, err
	}
	info := Info{Name: name, Type: ent.Type, Class: ent.Class, Chunk: ent.Chunk}
	if ent.Type == TypeFile {
		f, err := fs.openEntry(p, anyPath, ent)
		if err != nil {
			return Info{}, err
		}
		info.Size, err = f.Size(p)
		if err != nil {
			return Info{}, err
		}
	}
	return info, nil
}

// ReadDir lists a directory's entries, sorted by name.
func (fs *FS) ReadDir(p *sim.Proc, dirPath string) ([]Info, error) {
	dir, err := fs.openDir(p, dirPath)
	if err != nil {
		return nil, err
	}
	dkeys, err := dir.ListDkeys(p)
	if err != nil {
		return nil, err
	}
	var out []Info
	for _, dk := range dkeys {
		name := string(dk)
		if bytes.Equal(dk, sbDkey) {
			continue // hide the superblock record
		}
		ent, err := fs.fetchEntry(p, dir, name)
		if err != nil {
			return nil, err
		}
		out = append(out, Info{Name: name, Type: ent.Type, Class: ent.Class, Chunk: ent.Chunk})
	}
	return out, nil
}

// openDir resolves a path that must be a directory.
func (fs *FS) openDir(p *sim.Proc, dirPath string) (*daos.Object, error) {
	comps, err := splitPath(dirPath)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return fs.root, nil
	}
	parent, name, err := fs.lookupDir(p, dirPath)
	if err != nil {
		return nil, err
	}
	ent, err := fs.fetchEntry(p, parent, name)
	if err != nil {
		return nil, err
	}
	if ent.Type != TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, dirPath)
	}
	return fs.cont.OpenObject(p, ent.OID)
}

// Unlink removes a file or empty directory.
func (fs *FS) Unlink(p *sim.Proc, anyPath string) error {
	parent, name, err := fs.lookupDir(p, anyPath)
	if err != nil {
		return err
	}
	if name == "" {
		return ErrIsDir
	}
	ent, err := fs.fetchEntry(p, parent, name)
	if err != nil {
		return err
	}
	if ent.Type == TypeDir {
		dir, err := fs.cont.OpenObject(p, ent.OID)
		if err != nil {
			return err
		}
		children, err := dir.ListDkeys(p)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, anyPath)
		}
	}
	// Punch the data object, then drop the directory record.
	obj, err := fs.cont.OpenObject(p, ent.OID)
	if err != nil {
		return err
	}
	if err := obj.Punch(p); err != nil {
		return err
	}
	return fs.punchDkey(p, parent, name)
}

// punchDkey removes a directory record (a dkey punch on the parent object).
func (fs *FS) punchDkey(p *sim.Proc, dir *daos.Object, name string) error {
	kv := daos.KV{Obj: dir}
	return kv.Remove(p, name)
}

// Rename moves an entry to a new path (both parents must exist).
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	oldParent, oldName, err := fs.lookupDir(p, oldPath)
	if err != nil {
		return err
	}
	if oldName == "" {
		return ErrIsDir
	}
	ent, err := fs.fetchEntry(p, oldParent, oldName)
	if err != nil {
		return err
	}
	newParent, newName, err := fs.lookupDir(p, newPath)
	if err != nil {
		return err
	}
	if newName == "" {
		return ErrIsDir
	}
	if _, err := fs.fetchEntry(p, newParent, newName); err == nil {
		return fmt.Errorf("%w: %s", ErrExist, newPath)
	}
	ent.Mtime = p.Now().Nanoseconds()
	if err := fs.storeEntry(p, newParent, newName, ent); err != nil {
		return err
	}
	return fs.punchDkey(p, oldParent, oldName)
}

// File is an open DFS file.
type File struct {
	fs   *FS
	path string
	ent  entry
	arr  *daos.Array
}

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// Class returns the file's object class.
func (f *File) Class() placement.ClassID { return f.ent.Class }

// WriteAt stores data at the byte offset. The store keeps data, not a
// copy: do not modify it after the call.
func (f *File) WriteAt(p *sim.Proc, off int64, data []byte) error {
	return f.arr.Write(p, off, data)
}

// ReadAt fetches n bytes at the byte offset; holes read as zeros.
func (f *File) ReadAt(p *sim.Proc, off int64, n int64) ([]byte, error) {
	return f.arr.Read(p, off, n)
}

// ReadAtInto fetches n bytes at the byte offset into dst (len(dst) == n;
// every byte is written, holes as zeros). A nil dst simulates the read with
// identical timing without materializing data.
func (f *File) ReadAtInto(p *sim.Proc, off int64, n int64, dst []byte) error {
	return f.arr.ReadAtInto(p, off, n, 0, dst)
}

// Size returns the file's end-of-file.
func (f *File) Size(p *sim.Proc) (int64, error) {
	return f.arr.Size(p)
}

// Sync is a no-op: DAOS updates are durable on completion (persistent
// memory, no client write-back cache). Present for POSIX shims.
func (f *File) Sync(p *sim.Proc) error { return nil }

// Close releases the handle (no server state in this model).
func (f *File) Close(p *sim.Proc) error { return nil }
