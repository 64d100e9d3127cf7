package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"puppies"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/psp"
)

// buildPspd compiles the real daemon binary into dir. The e2e crash tests
// exercise the actual process boundary (SIGKILL has no in-process
// equivalent), so they need a binary, not a goroutine running run().
func buildPspd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pspd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build pspd: %v\n%s", err, out)
	}
	return bin
}

// lineBuffer collects daemon stdout while letting the test scan it later.
type lineBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lineBuffer) add(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.WriteString(line)
	b.buf.WriteByte('\n')
}

func (b *lineBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
	out  *lineBuffer
}

func (d *daemon) base() string { return "http://" + d.addr }

// startPspd launches the built binary and waits for its listen line.
func startPspd(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, out: &lineBuffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.out.add(line)
			if a, ok := strings.CutPrefix(line, "pspd listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("pspd never reported its listen address; output:\n%s", d.out)
	}
	return d
}

// kill SIGKILLs the daemon and reaps it — the crash under test.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait() // expected to report the kill
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if d.cmd.ProcessState != nil {
		return
	}
	d.kill(t)
}

// protectedImage builds a distinct source image, protects a region, and
// returns the protected artifact plus its pre-crash lossless recovery —
// the byte string the Lemma III.1 path must still reproduce after restart.
type protectedImage struct {
	prot      *puppies.Protected
	recovered []byte
}

func makeProtected(t *testing.T, seed int) *protectedImage {
	t.Helper()
	const w, h = 64, 64
	img, err := imgplane.New(w, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			img.Planes[0].Pix[i] = float32(100 + 80*math.Sin(float64(x+seed*7)/5))
			img.Planes[1].Pix[i] = float32(128 + 30*math.Cos(float64(y+seed*3)/9))
			img.Planes[2].Pix[i] = 128
		}
	}
	jimg, err := jpegc.FromPlanar(img, jpegc.Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jimg.Encode(&buf, jpegc.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	prot, err := puppies.ProtectJPEG(buf.Bytes(), puppies.ProtectOptions{
		Regions: []puppies.Rect{{X: 8, Y: 8, W: 32, H: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := puppies.UnprotectJPEG(prot.JPEG, prot.Params, prot.Keys)
	if err != nil {
		t.Fatal(err)
	}
	return &protectedImage{prot: prot, recovered: recovered}
}

func uploadProtected(base string, p *protectedImage) (string, error) {
	body, err := json.Marshal(psp.UploadRequest{Image: p.prot.JPEG, Params: p.prot.Params})
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: HTTP %d: %s", resp.StatusCode, raw)
	}
	var up psp.UploadResponse
	if err := json.Unmarshal(raw, &up); err != nil {
		return "", err
	}
	return up.ID, nil
}

func httpGetBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// searchIDs runs one /v1/search query (a POST body is a raw JPEG) and
// returns the IDs it answered.
func searchIDs(t *testing.T, method, url string, body []byte) []string {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "image/jpeg")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr psp.SearchResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(sr.Results))
	for i, r := range sr.Results {
		ids[i] = r.ID
	}
	return ids
}

func listIDs(t *testing.T, base string) []string {
	t.Helper()
	code, raw := httpGetBytes(t, base+"/v1/images")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d: %s", code, raw)
	}
	var lr psp.ListResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	return lr.IDs
}

// TestCrashRecoveryEndToEnd is the full-stack durability acceptance: a real
// pspd process with -data-dir takes N acknowledged uploads, is SIGKILLed
// while upload N+1 is in flight, and is restarted on the same directory.
// Every acknowledged image must come back byte-identical with bit-exact ROI
// recovery; the unacknowledged upload must be absent or, if its record
// completed before the kill landed, byte-identical too — never truncated,
// never silently wrong.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real daemon; skipped in -short")
	}
	work := t.TempDir()
	bin := buildPspd(t, work)
	dataDir := filepath.Join(work, "data")

	const n = 3
	imgs := make([]*protectedImage, n+1)
	for i := range imgs {
		imgs[i] = makeProtected(t, i)
	}

	d := startPspd(t, bin, "-data-dir", dataDir)
	defer d.stop(t)

	acked := make([]string, n)
	for i := 0; i < n; i++ {
		id, err := uploadProtected(d.base(), imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		acked[i] = id
	}

	// Fire upload N+1 and SIGKILL the daemon while it is (likely) in
	// flight. Whether the kill lands before, during, or after the write is
	// timing-dependent; every outcome is legal except a corrupt ack.
	doomed := make(chan string, 1)
	go func() {
		id, err := uploadProtected(d.base(), imgs[n])
		if err != nil {
			doomed <- ""
			return
		}
		doomed <- id
	}()
	time.Sleep(2 * time.Millisecond)
	d.kill(t)
	doomedID := <-doomed

	// Restart on the same data directory.
	d2 := startPspd(t, bin, "-data-dir", dataDir)
	defer d2.stop(t)
	if !strings.Contains(d2.out.String(), "pspd recovery:") {
		t.Errorf("restarted daemon printed no recovery report; output:\n%s", d2.out)
	}

	ids := listIDs(t, d2.base())
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for i, id := range acked {
		if !have[id] {
			t.Fatalf("acknowledged image %d (%s) lost across crash; listed: %v", i, id, ids)
		}
	}

	for i, id := range acked {
		code, jpegBytes := httpGetBytes(t, d2.base()+"/v1/images/"+id)
		if code != http.StatusOK {
			t.Fatalf("image %d: HTTP %d after restart", i, code)
		}
		if !bytes.Equal(jpegBytes, imgs[i].prot.JPEG) {
			t.Fatalf("image %d: stored JPEG differs from upload after crash recovery", i)
		}
		code, params := httpGetBytes(t, d2.base()+"/v1/images/"+id+"/params")
		if code != http.StatusOK {
			t.Fatalf("image %d params: HTTP %d after restart", i, code)
		}
		if !bytes.Equal(params, imgs[i].prot.Params) {
			t.Fatalf("image %d: stored params differ after crash recovery", i)
		}
		// Lemma III.1 end to end: recovery from the restarted store's bytes
		// is bit-identical to recovery computed before the crash.
		rec, err := puppies.UnprotectJPEG(jpegBytes, params, imgs[i].prot.Keys)
		if err != nil {
			t.Fatalf("image %d: ROI recovery after restart: %v", i, err)
		}
		if !bytes.Equal(rec, imgs[i].recovered) {
			t.Fatalf("image %d: ROI recovery not bit-exact after crash", i)
		}
	}

	// The doomed upload: if it was acknowledged before the kill landed, it
	// must have survived completely (checksummed envelope, atomic rename);
	// an unacknowledged record may appear only if it is byte-perfect.
	extra := 0
	ackedSet := make(map[string]bool, n)
	for _, id := range acked {
		ackedSet[id] = true
	}
	for _, id := range ids {
		if ackedSet[id] {
			continue
		}
		extra++
		code, jpegBytes := httpGetBytes(t, d2.base()+"/v1/images/"+id)
		if code != http.StatusOK {
			t.Fatalf("surviving extra record %s unreadable: HTTP %d", id, code)
		}
		if !bytes.Equal(jpegBytes, imgs[n].prot.JPEG) {
			t.Fatalf("extra record %s is not byte-identical to the in-flight upload", id)
		}
	}
	if doomedID != "" && !have[doomedID] {
		t.Fatalf("upload %s was acknowledged before the crash but lost", doomedID)
	}
	if extra > 1 {
		t.Fatalf("%d extra records appeared from one in-flight upload", extra)
	}
}

// TestCorruptRecordQuarantinedAcrossRestart flips one byte of a stored
// record on disk between daemon runs and asserts the restarted daemon
// quarantines it (reported in the recovery log, file preserved, image no
// longer served) while the untouched record is still byte-identical.
func TestCorruptRecordQuarantinedAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon; skipped in -short")
	}
	work := t.TempDir()
	bin := buildPspd(t, work)
	dataDir := filepath.Join(work, "data")

	good := makeProtected(t, 10)
	victim := makeProtected(t, 11)

	d := startPspd(t, bin, "-data-dir", dataDir)
	goodID, err := uploadProtected(d.base(), good)
	if err != nil {
		t.Fatal(err)
	}
	victimID, err := uploadProtected(d.base(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if got := searchIndexed(t, d.base()); got != 2 {
		t.Fatalf("search indexed = %d before the crash, want 2", got)
	}
	d.kill(t)

	victimPath := filepath.Join(dataDir, "records", victimID+".psp")
	raw, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(victimPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := startPspd(t, bin, "-data-dir", dataDir)
	defer d2.stop(t)
	out := d2.out.String()
	if !strings.Contains(out, "pspd quarantined") {
		t.Errorf("no quarantine line in recovery log:\n%s", out)
	}

	ids := listIDs(t, d2.base())
	if len(ids) != 1 || ids[0] != goodID {
		t.Fatalf("post-corruption listing = %v, want only %s", ids, goodID)
	}
	code, _ := httpGetBytes(t, d2.base()+"/v1/images/"+victimID)
	if code != http.StatusNotFound {
		t.Errorf("corrupt image served with HTTP %d, want 404", code)
	}
	code, jpegBytes := httpGetBytes(t, d2.base()+"/v1/images/"+goodID)
	if code != http.StatusOK || !bytes.Equal(jpegBytes, good.prot.JPEG) {
		t.Fatalf("intact record damaged by neighbour corruption (HTTP %d)", code)
	}

	// The index keeps only the records the store loaded: search never
	// answers the quarantined ID, which would 404.
	if got := searchIndexed(t, d2.base()); got != 1 {
		t.Errorf("search indexed = %d after restart, want 1 (the quarantined record is still indexed)", got)
	}
	for _, req := range []struct {
		method, url string
		body        []byte
	}{
		{http.MethodGet, d2.base() + "/v1/search?k=10&id=" + goodID, nil},
		{http.MethodPost, d2.base() + "/v1/search?k=10", victim.prot.JPEG},
	} {
		for _, id := range searchIDs(t, req.method, req.url, req.body) {
			if id == victimID {
				t.Errorf("%s %s answered the quarantined ID %s", req.method, req.url, victimID)
			}
		}
	}

	// Quarantine preserves the damaged bytes for forensics — never deletes.
	qdir := filepath.Join(dataDir, "quarantine")
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("quarantine dir empty or unreadable: %v", err)
	}
}
