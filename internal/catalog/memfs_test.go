package catalog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"time"
)

// memFS is an in-memory fileSystem for crash tests. It numbers every
// mutating call (MkdirAll, OpenFile, Truncate, Rename, Remove, SyncDir, and
// Write, Sync and Truncate on a handle). It can crash after call
// crashAfter, after which every call fails and changes nothing, or make
// call failAt fail; a failing Write first writes half its buffer.
//
// crashDisks enumerates what a disk can hold after a crash: each file
// keeps its last-synced content plus a prefix of the writes and
// truncations since that sync, the last kept write possibly cut short;
// each directory keeps its last-synced entries plus a prefix of the
// creates, renames and removes since it was last synced.
type memFS struct {
	root  *node
	nodes []*node // every node ever created, in creation order

	calls      int
	trace      []string // one description per mutating call
	crashAfter int      // 0: never crash
	failAt     int      // 0: never fail
	crashed    bool
}

var (
	errCrashed  = errors.New("memfs: crashed")
	errInjected = errors.New("memfs: injected failure")
)

// node is a file or a directory.
type node struct {
	path string // where it was last linked, for messages
	dir  bool

	data   []byte // file content now
	synced []byte // file content at the last Sync
	fops   []fileOp

	entries       map[string]*node // directory entries now
	syncedEntries map[string]*node // directory entries at the last SyncDir
	dops          []dirOp
}

// fileOp is a write of data at off, or (trunc) a truncation to off bytes.
type fileOp struct {
	trunc bool
	off   int
	data  []byte
}

func (op fileOp) apply(b []byte) []byte {
	end := op.off + len(op.data)
	if op.trunc {
		end = op.off
	}
	if end > len(b) {
		b = append(b, make([]byte, end-len(b))...)
	}
	if op.trunc {
		return b[:end]
	}
	copy(b[op.off:], op.data)
	return b
}

// dirOp links n as name (create), moves name to to (rename), or unlinks
// name (remove).
type dirOp struct {
	kind, name, to string
	n              *node
}

func (op dirOp) apply(m map[string]*node) {
	switch op.kind {
	case "create":
		m[op.name] = op.n
	case "rename":
		m[op.to] = m[op.name]
		delete(m, op.name)
	case "remove":
		delete(m, op.name)
	}
}

// newMemFS returns a filesystem whose given directories exist and are
// durable.
func newMemFS(dirs ...string) *memFS {
	m := &memFS{}
	m.root = m.newNode("/", true)
	for _, d := range dirs {
		parent := m.root
		for _, name := range strings.Split(strings.Trim(d, "/"), "/") {
			child := parent.entries[name]
			if child == nil {
				child = m.newNode(path.Join(parent.path, name), true)
				parent.entries[name] = child
				parent.syncedEntries[name] = child
			}
			parent = child
		}
	}
	return m
}

func (m *memFS) newNode(p string, dir bool) *node {
	n := &node{path: p, dir: dir}
	if dir {
		n.entries = map[string]*node{}
		n.syncedEntries = map[string]*node{}
	}
	m.nodes = append(m.nodes, n)
	return n
}

// put creates a durable file holding data, counting no call.
func (m *memFS) put(p string, data []byte) {
	dir, name := m.lookupDir(p)
	n := m.newNode(p, false)
	n.data = append([]byte(nil), data...)
	n.synced = append([]byte(nil), data...)
	dir.entries[name] = n
	dir.syncedEntries[name] = n
}

// get returns a file's current content.
func (m *memFS) get(p string) ([]byte, bool) {
	dir, name := m.lookupDir(p)
	if dir == nil || dir.entries[name] == nil || dir.entries[name].dir {
		return nil, false
	}
	return dir.entries[name].data, true
}

// lookupDir resolves p's parent directory (nil when missing) and base name.
func (m *memFS) lookupDir(p string) (*node, string) {
	p = path.Clean(p)
	dir := m.root
	for _, name := range strings.Split(strings.Trim(path.Dir(p), "/"), "/") {
		if name == "" {
			continue
		}
		if dir = dir.entries[name]; dir == nil || !dir.dir {
			return nil, ""
		}
	}
	return dir, path.Base(p)
}

// call numbers one mutating call and returns the error it fails with:
// errCrashed once crashed (the call then changes nothing), errInjected
// when it is call failAt.
func (m *memFS) call(format string, args ...any) error {
	if m.crashed {
		return errCrashed
	}
	m.calls++
	m.trace = append(m.trace, fmt.Sprintf(format, args...))
	m.crashed = m.calls == m.crashAfter
	if m.calls == m.failAt {
		return errInjected
	}
	return nil
}

func (m *memFS) link(dir *node, name string, n *node) {
	op := dirOp{kind: "create", name: name, n: n}
	op.apply(dir.entries)
	dir.dops = append(dir.dops, op)
}

func (n *node) fileOp(op fileOp) {
	n.data = op.apply(n.data)
	n.fops = append(n.fops, op)
}

func (m *memFS) MkdirAll(dir string) ([]string, error) {
	if err := m.call("mkdir %s", dir); err != nil {
		return nil, err
	}
	var created []string
	parent := m.root
	for _, name := range strings.Split(strings.Trim(dir, "/"), "/") {
		child := parent.entries[name]
		if child == nil {
			child = m.newNode(path.Join(parent.path, name), true)
			m.link(parent, name, child)
			created = append(created, child.path)
		} else if !child.dir {
			return nil, fmt.Errorf("memfs: %s is a file", child.path)
		}
		parent = child
	}
	return created, nil
}

func (m *memFS) ReadFile(p string) ([]byte, error) {
	data, ok := m.get(p)
	if !ok {
		return nil, fs.ErrNotExist
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) OpenFile(p string, flag int) (file, error) {
	if err := m.call("open %s", path.Base(p)); err != nil {
		return nil, err
	}
	dir, name := m.lookupDir(p)
	if dir == nil {
		return nil, fs.ErrNotExist
	}
	n := dir.entries[name]
	if n == nil {
		if flag&os.O_CREATE == 0 {
			return nil, fs.ErrNotExist
		}
		n = m.newNode(p, false)
		m.link(dir, name, n)
	}
	if flag&os.O_TRUNC != 0 {
		n.fileOp(fileOp{trunc: true})
	}
	return &memFile{fs: m, n: n, append: flag&os.O_APPEND != 0}, nil
}

func (m *memFS) Truncate(p string, size int64) error {
	if err := m.call("truncate %s to %d", path.Base(p), size); err != nil {
		return err
	}
	dir, name := m.lookupDir(p)
	if dir == nil || dir.entries[name] == nil {
		return fs.ErrNotExist
	}
	dir.entries[name].fileOp(fileOp{trunc: true, off: int(size)})
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	if err := m.call("rename %s to %s", path.Base(oldpath), path.Base(newpath)); err != nil {
		return err
	}
	dir, name := m.lookupDir(oldpath)
	if newDir, _ := m.lookupDir(newpath); newDir != dir {
		return fmt.Errorf("memfs: rename across directories")
	}
	if dir == nil || dir.entries[name] == nil {
		return fs.ErrNotExist
	}
	dir.entries[name].path = newpath
	op := dirOp{kind: "rename", name: name, to: path.Base(newpath)}
	op.apply(dir.entries)
	dir.dops = append(dir.dops, op)
	return nil
}

func (m *memFS) Remove(p string) error {
	if err := m.call("remove %s", path.Base(p)); err != nil {
		return err
	}
	dir, name := m.lookupDir(p)
	if dir == nil || dir.entries[name] == nil {
		return fs.ErrNotExist
	}
	op := dirOp{kind: "remove", name: name}
	op.apply(dir.entries)
	dir.dops = append(dir.dops, op)
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	if err := m.call("syncdir %s", dir); err != nil {
		return err
	}
	parent, name := m.lookupDir(dir)
	n := m.root
	if dir != "/" {
		if parent == nil || parent.entries[name] == nil {
			return fs.ErrNotExist
		}
		n = parent.entries[name]
	}
	n.syncedEntries = copyEntries(n.entries)
	n.dops = nil
	return nil
}

func copyEntries(m map[string]*node) map[string]*node {
	out := make(map[string]*node, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// memFile is an open handle; append handles write at the current end.
type memFile struct {
	fs     *memFS
	n      *node
	append bool
	pos    int
}

func (f *memFile) Write(p []byte) (int, error) {
	err := f.fs.call("write %d bytes to %s", len(p), path.Base(f.n.path))
	if err == errCrashed {
		return 0, err
	}
	if f.append {
		f.pos = len(f.n.data)
	}
	if err != nil {
		p = p[:len(p)/2]
	}
	f.n.fileOp(fileOp{off: f.pos, data: append([]byte(nil), p...)})
	f.pos += len(p)
	return len(p), err
}

func (f *memFile) Sync() error {
	if err := f.fs.call("sync %s", path.Base(f.n.path)); err != nil {
		return err
	}
	f.n.synced = append([]byte(nil), f.n.data...)
	f.n.fops = nil
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if err := f.fs.call("truncate open %s to %d", path.Base(f.n.path), size); err != nil {
		return err
	}
	f.n.fileOp(fileOp{trunc: true, off: int(size)})
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) { return memInfo(len(f.n.data)), nil }
func (f *memFile) Close() error               { return nil }

// memInfo is the FileInfo of a file of that many bytes.
type memInfo int

func (i memInfo) Name() string       { return "" }
func (i memInfo) Size() int64        { return int64(i) }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// keep is one node's fate in a crash: how many unsynced operations
// survive and, when the last survivor is a write, how many of its bytes
// (-1: all of them).
type keep struct{ ops, cut int }

// choices lists a node's possible fates.
func (n *node) choices() []keep {
	out := []keep{{0, -1}}
	for i := range n.dops {
		out = append(out, keep{i + 1, -1})
	}
	for i, op := range n.fops {
		out = append(out, keep{i + 1, -1})
		if op.trunc {
			continue
		}
		cuts := map[int]bool{}
		for _, c := range []int{1, len(op.data) / 2, len(op.data) - 1} {
			if c > 0 && c < len(op.data) && !cuts[c] {
				cuts[c] = true
				out = append(out, keep{i + 1, c})
			}
		}
	}
	return out
}

// crashDisks calls fn once for each distinct disk a crash now can leave
// behind, as a filesystem on which everything is durable. desc names the
// fate of each node with unsynced operations.
func (m *memFS) crashDisks(fn func(desc string, disk *memFS)) {
	var pending []*node
	var options [][]keep
	for _, n := range m.nodes {
		if len(n.fops)+len(n.dops) > 0 {
			pending = append(pending, n)
			options = append(options, n.choices())
		}
	}
	seen := map[string]bool{}
	pick := make([]int, len(pending))
	for {
		fate := make(map[*node]keep, len(pending))
		var desc []string
		for i, n := range pending {
			k := options[i][pick[i]]
			fate[n] = k
			d := fmt.Sprintf("%s keeps %d/%d", n.path, k.ops, len(n.fops)+len(n.dops))
			if k.cut >= 0 {
				d += fmt.Sprintf(" (last cut to %d bytes)", k.cut)
			}
			desc = append(desc, d)
		}
		disk := newMemFS()
		disk.root = disk.restore(m.root, fate)
		if key := disk.String(); !seen[key] {
			seen[key] = true
			fn(strings.Join(desc, ", "), disk)
		}
		i := 0
		for ; i < len(pick); i++ {
			if pick[i]++; pick[i] < len(options[i]) {
				break
			}
			pick[i] = 0
		}
		if i == len(pick) {
			return
		}
	}
}

// restore copies n as a crash with the given fates leaves it.
func (m *memFS) restore(n *node, fate map[*node]keep) *node {
	k := fate[n]
	out := m.newNode(n.path, n.dir)
	if n.dir {
		entries := copyEntries(n.syncedEntries)
		for _, op := range n.dops[:k.ops] {
			op.apply(entries)
		}
		for name, child := range entries {
			c := m.restore(child, fate)
			c.path = path.Join(out.path, name)
			out.entries[name] = c
			out.syncedEntries[name] = c
		}
		return out
	}
	data := append([]byte(nil), n.synced...)
	for i, op := range n.fops[:k.ops] {
		if i == k.ops-1 && k.cut >= 0 {
			op.data = op.data[:k.cut]
		}
		data = op.apply(data)
	}
	out.data = data
	out.synced = append([]byte(nil), data...)
	return out
}

// String lists every path and file content, sorted.
func (m *memFS) String() string {
	var lines []string
	var walk func(n *node)
	walk = func(n *node) {
		for _, c := range n.entries {
			if c.dir {
				lines = append(lines, c.path+"/")
				walk(c)
			} else {
				lines = append(lines, fmt.Sprintf("%s %q", c.path, c.data))
			}
		}
	}
	walk(m.root)
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
