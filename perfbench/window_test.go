package main

import (
	"context"
	"io"
	"testing"
)

// The sysprompt warm-up publishes the system prompt, so every window
// request adopts exactly its 1024 rows: the in-window prefix hit ratio is
// exactly 1 and the window is correct end to end.
func TestSyspromptWindowHitsPrefixEveryTime(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	w, err := lookupWorkload("sysprompt")
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(w, 3, minWindow)
	in.verify = in.verify[:4]
	for i := range in.window { // twice the rate, well under capacity: a shorter test
		in.window[i].due /= 2
	}
	st, err := boot(context.Background(), w, &in, false)
	if err != nil {
		t.Fatal(err)
	}
	win, err := st.measureWindow(context.Background(), &in, false)
	st.srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	b, a := win.before.rep.Prefix, win.after.rep.Prefix
	lookups, hits := a.Lookups-b.Lookups, a.Hits-b.Hits
	if lookups != minWindow || hits != lookups {
		t.Errorf("window prefix probes: %d hits of %d lookups, want %d of %d", hits, lookups, minWindow, minWindow)
	}
	if reused := a.RowsReused - b.RowsReused; reused != int64(minWindow*w.sysPrompt) {
		t.Errorf("window adopted %d rows, want %d", reused, minWindow*w.sysPrompt)
	}
	ver, err := verify(st.params, &in, &win, in.sys)
	if err != nil {
		t.Fatal(err)
	}
	if !reconcile(w, &win, ver, io.Discard) || ver.matched != ver.checked {
		t.Errorf("window not correct: %d of %d completions match the reference", ver.matched, ver.checked)
	}
}
