package mds

import (
	"errors"
	"testing"

	"cudele/internal/journal"
	"cudele/internal/model"
	"cudele/internal/namespace"
	"cudele/internal/runtime"
	"cudele/internal/transport"
)

// TestFreezeTurnsAwayRacingMerges: merges into a subtree whose freeze is
// in progress must not be admitted. One streamed open passed the bounce
// before the freeze started and is still paying its admission cost; a
// one-shot merge arrives while the freeze is snapshotting. Either one,
// admitted, would apply behind the export's directory list and be
// pruned with it. A merge into an unrelated subtree is still admitted.
func TestFreezeTurnsAwayRacingMerges(t *testing.T) {
	eng, s := newTestServerCfg(model.Default())
	var job *namespace.Inode
	for _, dir := range []string{"/job", "/other"} {
		in, err := s.Store().MkdirAll(dir, namespace.CreateAttrs{Mode: 0o755})
		if err != nil {
			t.Fatalf("mkdir %s: %v", dir, err)
		}
		if job == nil {
			job = in
		}
	}
	var early, other *MergeOpenReply
	var oneShot *MergeReply
	var freeze *ExportFreezeReply
	eng.Spawn("early", func(p runtime.Task) {
		early = s.handle(p, &MergeOpenMsg{Client: "a", Route: "/job"}).(*MergeOpenReply)
	})
	eng.Spawn("freezer", func(p runtime.Task) {
		freeze = s.handle(p, &ExportFreezeMsg{Path: "/job"}).(*ExportFreezeReply)
	})
	eng.Spawn("one-shot", func(p runtime.Task) {
		p.Sleep(1)
		if s.Frozen("/job") {
			t.Error("freeze already landed: the snapshot window is not exercised")
		}
		oneShot = s.handle(p, &MergeMsg{Route: "/job", Events: []*journal.Event{{
			Type: journal.EvCreate, Client: "b", Parent: uint64(job.Ino),
			Name: "late", Ino: 1 << 40, Mode: 0o644,
		}}}).(*MergeReply)
	})
	eng.Spawn("unrelated", func(p runtime.Task) {
		p.Sleep(1)
		other = s.handle(p, &MergeOpenMsg{Client: "c", Route: "/other"}).(*MergeOpenReply)
	})
	eng.RunAll()

	if freeze.Err != nil {
		t.Fatalf("freeze: %v", freeze.Err)
	}
	for name, err := range map[string]error{"streamed open": early.Err, "one-shot merge": oneShot.Err} {
		var werr *transport.WrongRankError
		if !errors.As(err, &werr) || !werr.Frozen {
			t.Errorf("%s: err = %v, want a Frozen redirect", name, err)
		}
	}
	if _, err := s.Store().Resolve("/job/late"); err == nil {
		t.Error("the one-shot merge applied into the freezing subtree")
	}
	if other.Err != nil || other.ID == 0 {
		t.Errorf("unrelated open = %+v, want admitted", other)
	}
	if got := s.Metrics().MergeJobs; got != 1 {
		t.Errorf("merge jobs admitted = %d, want 1 (the unrelated subtree)", got)
	}
}
