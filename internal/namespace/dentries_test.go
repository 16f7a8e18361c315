package namespace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cudele/internal/journal"
)

// listingNames is the small name pool the listing tests draw from, so
// creates collide with existing dentries and renames replace them.
var listingNames = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

const listingOpKinds = 11

// listingStep applies one operation, chosen by op and parameterised by
// x and y, to s. Operations the store refuses (a create over an
// existing name, an rmdir of a non-empty directory, ...) are part of the
// mix: they must leave the listing as it was. A ReadDir step checks the
// listing it returns.
func listingStep(t testing.TB, s *Store, op, x, y byte) {
	t.Helper()
	dirs := s.Dirs()
	dir := dirs[int(x)%len(dirs)]
	other := dirs[int(y)%len(dirs)]
	name := listingNames[int(x/8)%len(listingNames)]
	name2 := listingNames[int(y/8)%len(listingNames)]
	switch op % listingOpKinds {
	case 0:
		s.Create(dir, name, CreateAttrs{Mode: 0644, Mtime: int64(y)})
	case 1:
		s.Mkdir(dir, name, CreateAttrs{Mode: 0755})
	case 2:
		s.Unlink(dir, name)
	case 3:
		s.Rmdir(dir, name)
	case 4: // within one directory, replacing name2 when it is a file
		s.Rename(dir, name, dir, name2)
	case 5: // across directories
		s.Rename(dir, name, other, name2)
	case 6: // a merge's create over an existing dentry
		s.ApplyEvent(&journal.Event{
			Type: journal.EvCreate, Parent: uint64(dir), Name: name,
			Ino: uint64(s.AllocIno()), Mode: 0600,
		})
	case 7: // reload the directory object with one file dropped, one added
		data, err := s.EncodeDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := DecodeDir(data)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(obj.Entries); n > 0 {
			i := int(y) % n
			obj.Entries = append(obj.Entries[:i], obj.Entries[i+1:]...)
		}
		if _, exists := s.inodes[dir].children.get(name2); !exists {
			obj.Entries = append(obj.Entries, DirEntry{Name: name2, Ino: s.AllocIno(), Type: TypeFile})
		}
		if err := s.InstallDir(obj); err != nil {
			t.Fatal(err)
		}
	case 8:
		if dir != RootIno {
			p, _ := s.PathOf(dir)
			if _, err := s.PruneSubtree(p); err != nil {
				t.Fatal(err)
			}
		}
	case 9: // a dangling dentry and an orphan, both fixed by Repair
		s.inodes[dir].children.put("ghost", 1<<40)
		orphan := s.AllocIno()
		s.inodes[orphan] = &Inode{Ino: orphan, Parent: other, Name: name2}
		s.Repair()
	case 10:
		checkReadDir(t, s, dir)
	}
}

// checkReadDir asserts ReadDir(dir) equals the directory's sorted dentry
// names and that the caller owns the returned slice.
func checkReadDir(t testing.TB, s *Store, dir Ino) {
	t.Helper()
	want := make([]string, 0)
	for name := range s.inodes[dir].children.all() {
		want = append(want, name)
	}
	sort.Strings(want)
	got, err := s.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadDir(%d) = %q, want %q", dir, got, want)
	}
	if len(got) > 0 {
		got[0] = "\xffscribbled"
		if again, _ := s.ReadDir(dir); !reflect.DeepEqual(again, want) {
			t.Fatalf("ReadDir(%d) after mutating its result = %q, want %q", dir, again, want)
		}
	}
}

// rebuild copies s's namespace into a new store by inserting every
// dentry in map order, so the copy has no kept listings.
func rebuild(t testing.TB, s *Store) *Store {
	t.Helper()
	fresh := NewStore()
	var copyDir func(dir *Inode)
	copyDir = func(dir *Inode) {
		for name, ci := range dir.children.all() {
			in := s.inodes[ci]
			attrs := CreateAttrs{Mode: in.Mode, UID: in.UID, GID: in.GID, Mtime: in.Mtime, Ino: in.Ino}
			var err error
			if in.IsDir() {
				_, err = fresh.Mkdir(dir.Ino, name, attrs)
				copyDir(in)
			} else {
				_, err = fresh.Create(dir.Ino, name, attrs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	copyDir(s.Root())
	return fresh
}

func walkLines(t testing.TB, s *Store) []string {
	t.Helper()
	var lines []string
	if err := s.Walk(RootIno, func(p string, in *Inode) error {
		lines = append(lines, fmt.Sprintf("%s %d %v", p, in.Ino, in.Type))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkAgainstRebuilt asserts Walk and EncodeDir, which reuse a kept
// listing when it is up to date, match a store that has none.
func checkAgainstRebuilt(t testing.TB, s *Store) {
	t.Helper()
	if problems := s.Check(); len(problems) > 0 {
		t.Fatalf("unhealthy store: %v", problems)
	}
	fresh := rebuild(t, s)
	if got, want := walkLines(t, s), walkLines(t, fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk = %q\nrebuilt store walks %q", got, want)
	}
	for _, dir := range s.Dirs() {
		got, err := s.EncodeDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EncodeDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeDir(%d) differs from the rebuilt store's", dir)
		}
	}
}

// TestListingMatchesSortedKeys drives seeded random mixes of every
// dentry mutation, with ReadDir calls in between, and checks the kept
// listings against the dentry maps after every step.
func TestListingMatchesSortedKeys(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		for i := 0; i < 400; i++ {
			op := byte(rng.Intn(listingOpKinds))
			if rng.Intn(3) == 0 {
				op = 10 // ReadDir often enough to keep listings alive
			}
			listingStep(t, s, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
			checkAgainstRebuilt(t, s)
		}
		for _, dir := range s.Dirs() {
			checkReadDir(t, s, dir)
		}
	}
}

// FuzzDirListing decodes the input into a sequence of three-byte
// operations (kind, x, y) and checks every directory's ReadDir against
// its sorted dentry names at the end.
func FuzzDirListing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 0, 0, 0, 8, 0, 10, 0, 0, 2, 0, 0, 10, 0, 0})
	f.Add([]byte{1, 0, 0, 10, 0, 0, 0, 1, 16, 10, 1, 0, 4, 8, 16, 10, 0, 0, 5, 16, 9, 10, 1, 1})
	f.Add([]byte{0, 0, 0, 10, 0, 0, 6, 0, 0, 7, 0, 8, 10, 0, 0, 9, 0, 0, 10, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 128
		s := NewStore()
		for i := 0; i+3 <= len(data) && i < 3*maxOps; i += 3 {
			listingStep(t, s, data[i], data[i+1], data[i+2])
		}
		for _, dir := range s.Dirs() {
			checkReadDir(t, s, dir)
		}
	})
}

// TestLookupMissError pins the miss's text and sentinel, and that it
// costs at most the one allocation of its error value.
func TestLookupMissError(t *testing.T) {
	s := NewStore()
	dir, err := s.Mkdir(RootIno, "d", CreateAttrs{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Lookup(dir.Ino, "missing")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	want := fmt.Sprintf(`lookup "missing" in inode %d: namespace: no such file or dir`, dir.Ino)
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Lookup(dir.Ino, "missing"); err == nil {
			t.Fatal("lookup hit")
		}
	})
	if avg > 1 {
		t.Fatalf("a Lookup miss allocates %.1f times, want at most 1", avg)
	}
}
