package catalog

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// fileSystem is every disk operation the catalog makes. Open uses the
// operating system; the crash tests substitute a filesystem that stops or
// fails after any one call.
type fileSystem interface {
	// MkdirAll creates dir and any missing parents, returning the
	// directories it created: their entries are not durable until their
	// parents are synced.
	MkdirAll(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	OpenFile(path string, flag int) (file, error)
	Truncate(path string, size int64) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir opens dir and fsyncs it, making its entries durable.
	SyncDir(dir string) error
}

// file is an open catalog file.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
	Close() error
}

type osFS struct{}

func (osFS) MkdirAll(dir string) ([]string, error) {
	var created []string
	for p := filepath.Clean(dir); ; p = filepath.Dir(p) {
		_, err := os.Stat(p)
		if err == nil {
			break
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		created = append(created, p)
		if filepath.Dir(p) == p {
			break
		}
	}
	return created, os.MkdirAll(dir, 0o755)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) OpenFile(path string, flag int) (file, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error               { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
