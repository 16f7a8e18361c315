package namespace

import "sort"

// dentries is one directory's dentry table. Besides the name → inode map
// it may keep the directory's names in sorted order, so that a repeated
// ReadDir of a large directory is a merge of the few names added since
// the last call rather than a full sort:
//
//   - only ReadDir creates the kept listing (sorted != nil); Walk,
//     EncodeDir and Check reuse it when it is up to date but never create
//     one, so a tree walk does not pin a second copy of every name;
//   - while a listing is kept, inserting a new name appends it to pending,
//     and the next ReadDir sorts pending and merges it in;
//   - any removal drops the listing (and pending), so a kept listing never
//     holds a stale name.
//
// A kept listing's backing array is never written after it is built, so
// a slice of it handed to Walk stays valid while the walk's callback
// mutates the directory.
type dentries struct {
	m       map[string]Ino
	sorted  []string // kept listing; nil when none is kept
	pending []string // names inserted since sorted was built, unsorted
}

func newDentries() *dentries { return &dentries{m: make(map[string]Ino)} }

// get returns the inode name refers to. A nil table (a regular file) has
// no entries.
func (d *dentries) get(name string) (Ino, bool) {
	if d == nil {
		return 0, false
	}
	ino, ok := d.m[name]
	return ino, ok
}

// len returns the number of dentries.
func (d *dentries) len() int {
	if d == nil {
		return 0
	}
	return len(d.m)
}

// all returns the name → inode map for ranging over in no particular
// order. The caller may del entries while ranging, but not put.
func (d *dentries) all() map[string]Ino {
	if d == nil {
		return nil
	}
	return d.m
}

// put binds name to ino, adding the dentry or re-pointing an existing one.
func (d *dentries) put(name string, ino Ino) {
	if d.sorted != nil {
		if _, exists := d.m[name]; !exists {
			d.pending = append(d.pending, name)
		}
	}
	d.m[name] = ino
}

// del removes the dentry name and drops the kept listing.
func (d *dentries) del(name string) {
	delete(d.m, name)
	d.sorted, d.pending = nil, nil
}

// names returns every name in sorted order without creating a kept
// listing: the kept one when it is up to date (the caller must not modify
// it), a freshly sorted slice otherwise.
func (d *dentries) names() []string {
	if d == nil {
		return nil
	}
	if d.sorted != nil && len(d.pending) == 0 {
		return d.sorted
	}
	names := make([]string, 0, len(d.m))
	for name := range d.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// listing brings the kept listing up to date, creating it on first use,
// and returns a copy the caller may modify. Pending names are sorted and
// merged in O(n + k log k) for n kept and k pending names.
func (d *dentries) listing() []string {
	switch {
	case d.sorted == nil:
		d.sorted = d.names()
	case len(d.pending) > 0:
		sort.Strings(d.pending)
		merged := make([]string, 0, len(d.sorted)+len(d.pending))
		old, add := d.sorted, d.pending
		for len(old) > 0 && len(add) > 0 {
			if old[0] < add[0] {
				merged, old = append(merged, old[0]), old[1:]
			} else {
				merged, add = append(merged, add[0]), add[1:]
			}
		}
		merged = append(append(merged, old...), add...)
		d.sorted, d.pending = merged, d.pending[:0]
	}
	out := make([]string, len(d.sorted))
	copy(out, d.sorted)
	return out
}
