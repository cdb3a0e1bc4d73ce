package clusterfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// storage.go abstracts where a subfile's bytes live. The evaluation
// runs on in-memory subfiles (deterministic, fast); a directory-backed
// store writes each subfile to a real file, which is what the original
// Clusterfile I/O nodes did with their local disks.

// Storage is one subfile's byte store. Offsets address the subfile's
// linear space.
type Storage interface {
	// EnsureLen grows the store to at least n bytes (zero filled).
	EnsureLen(n int64) error
	// Len returns the current size.
	Len() int64
	// WriteAt stores p at off; the store must already be long enough.
	WriteAt(p []byte, off int64) error
	// ReadAt fills p from off; the store must be long enough.
	ReadAt(p []byte, off int64) error
	// Sync flushes buffered writes to durable media (a no-op for
	// memory-backed stores). Close implies a final Sync.
	Sync() error
	// Close releases resources.
	Close() error
}

// Remover is the optional capability of a Storage whose backing
// medium can be deleted outright. RemoveStorage uses it after Close
// when a store generation is garbage-collected; stores without it
// (memory-backed) have nothing durable to reclaim.
type Remover interface {
	Remove() error
}

// RemoveStorage deletes a closed store's backing medium if it has one.
func RemoveStorage(st Storage) error {
	if r, ok := st.(Remover); ok {
		return r.Remove()
	}
	return nil
}

// DiscardStorage closes an open store and deletes its backing medium —
// the garbage collection of a superseded store generation. A store
// with a Discard method does both in one step, without the final Sync a
// plain Close implies: flushing a generation that is about to be
// unlinked buys nothing. Any other store is closed, then removed.
func DiscardStorage(st Storage) error {
	if d, ok := st.(interface{ Discard() error }); ok {
		return d.Discard()
	}
	if err := st.Close(); err != nil {
		return err
	}
	return RemoveStorage(st)
}

// memStorage is the default in-memory store. Bytes between len and cap
// of data are always zero: the store never shrinks and never writes
// past its length.
type memStorage struct {
	data []byte
}

// EnsureLen keeps Len exact but grows the capacity geometrically:
// every local data op grows inline, so append-shaped traffic would
// otherwise reallocate — and copy — the whole store on every call.
func (m *memStorage) EnsureLen(n int64) error {
	if int64(cap(m.data)) < n {
		grown := make([]byte, n, max(n, 2*int64(cap(m.data))))
		copy(grown, m.data)
		m.data = grown
	} else if int64(len(m.data)) < n {
		m.data = m.data[:n]
	}
	return nil
}

func (m *memStorage) Len() int64 { return int64(len(m.data)) }

func (m *memStorage) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return fmt.Errorf("clusterfile: write [%d,%d) outside store of %d bytes",
			off, off+int64(len(p)), len(m.data))
	}
	copy(m.data[off:], p)
	return nil
}

func (m *memStorage) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return fmt.Errorf("clusterfile: read [%d,%d) outside store of %d bytes",
			off, off+int64(len(p)), len(m.data))
	}
	copy(p, m.data[off:])
	return nil
}

func (m *memStorage) Sync() error { return nil }

func (m *memStorage) Close() error { return nil }

// fileStorage stores a subfile in a real file on the host filesystem.
type fileStorage struct {
	f    *os.File
	size int64
}

func (s *fileStorage) EnsureLen(n int64) error {
	if s.size >= n {
		return nil
	}
	// Pick up the on-disk size before deciding to grow: when the
	// factory reopened an existing subfile the cached size may trail
	// the file, and truncating from a stale size would shrink it.
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() > s.size {
		s.size = info.Size()
	}
	if s.size >= n {
		return nil
	}
	if err := s.f.Truncate(n); err != nil {
		return err
	}
	s.size = n
	return nil
}

func (s *fileStorage) Len() int64 { return s.size }

func (s *fileStorage) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > s.size {
		return fmt.Errorf("clusterfile: write [%d,%d) outside store of %d bytes",
			off, off+int64(len(p)), s.size)
	}
	_, err := s.f.WriteAt(p, off)
	return err
}

func (s *fileStorage) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > s.size {
		return fmt.Errorf("clusterfile: read [%d,%d) outside store of %d bytes",
			off, off+int64(len(p)), s.size)
	}
	_, err := s.f.ReadAt(p, off)
	return err
}

func (s *fileStorage) Sync() error { return s.f.Sync() }

func (s *fileStorage) Close() error {
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Discard closes the file without syncing it and deletes it.
func (s *fileStorage) Discard() error {
	return errors.Join(s.f.Close(), s.Remove())
}

// Remove deletes the subfile's backing file. Call after Close; a
// missing file (already collected) is not an error.
func (s *fileStorage) Remove() error {
	if err := os.Remove(s.f.Name()); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// StorageFactory creates the store for one subfile.
type StorageFactory func(fileName string, subfile int) (Storage, error)

// MemStorageFactory is the default: in-memory subfiles.
func MemStorageFactory(string, int) (Storage, error) { return &memStorage{}, nil }

// DirStorageFactory stores each subfile as
// dir/<fileName>.subfile<NN>, truncating any previous contents (a
// fresh file). The directory is created if needed.
func DirStorageFactory(dir string) StorageFactory {
	return dirFactory(dir, true)
}

// ReopenDirStorageFactory opens existing subfile stores in dir without
// truncation — the factory to use when reopening a file from saved
// metadata (see LoadMetadata).
func ReopenDirStorageFactory(dir string) StorageFactory {
	return dirFactory(dir, false)
}

func dirFactory(dir string, truncate bool) StorageFactory {
	return func(fileName string, subfile int) (Storage, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.subfile%02d", fileName, subfile))
		flags := os.O_RDWR | os.O_CREATE
		if truncate {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			return nil, err
		}
		st := &fileStorage{f: f}
		if !truncate {
			info, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			st.size = info.Size()
		}
		return st, nil
	}
}
