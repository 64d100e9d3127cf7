package main

import (
	"bytes"
	"fmt"
	"image"
	"time"

	"puppies"
	"puppies/internal/core"
	"puppies/internal/dataset"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/roi"
)

// shareInput is one sender photo: a Caltech render, its face regions and
// one deterministic key pair per region.
type shareInput struct {
	std     image.Image
	regions []core.ROI
	keys    []*keys.Pair
	// expected is what exact recovery must reproduce (Lemma III.1): the
	// render imported and encoded with optimized tables, no perturbation.
	expected []byte
}

// genShare renders n Caltech photos that have at least one face.
func genShare(seed int64, n int) ([]*shareInput, error) {
	g, err := dataset.NewGenerator(dataset.Caltech, seed)
	if err != nil {
		return nil, err
	}
	var out []*shareInput
	for idx := 0; len(out) < n; idx++ {
		if idx > 20*n {
			return nil, fmt.Errorf("share: too few Caltech renders with faces")
		}
		item := g.Item(idx)
		p := dataset.Caltech
		var rects []core.ROI
		for _, a := range item.Annotations {
			if a.Class != dataset.ClassFace {
				continue
			}
			rects = append(rects, core.ROI{X: a.X, Y: a.Y, W: a.W, H: a.H})
		}
		rects = roi.AlignAll(rects, p.W, p.H)
		if len(rects) == 0 {
			continue
		}
		in := &shareInput{std: item.Image.Quantize8().ToStdImage(), regions: rects}
		for j := range rects {
			in.keys = append(in.keys, keys.NewPairDeterministic(seed*1_000_000+int64(idx)*16+int64(j)))
		}
		out = append(out, in)
	}
	return out, nil
}

// setupShare is the share workload's program-side set-up: the expected
// recovery bytes of every input, and the check that a region whose key the
// receiver lacks stays perturbed.
func setupShare(inputs []*shareInput) error {
	for _, in := range inputs {
		planar, err := imgplane.FromStdImage(in.std)
		if err != nil {
			return err
		}
		img, err := jpegc.FromPlanar(planar, jpegc.Options{})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
			return err
		}
		in.expected = buf.Bytes()
	}
	return checkUnkeyedStaysPerturbed(inputs[0])
}

// checkUnkeyedStaysPerturbed recovers with every key but the first region's
// and requires that region to differ from the plaintext in most of its
// luma blocks while every other region is recovered exactly.
func checkUnkeyedStaysPerturbed(in *shareInput) error {
	p, err := puppies.Protect(in.std, puppies.ProtectOptions{Variant: puppies.VariantZ, Regions: in.regions, Keys: in.keys})
	if err != nil {
		return err
	}
	rec, err := puppies.UnprotectJPEG(p.JPEG, p.Params, in.keys[1:])
	if err != nil {
		return err
	}
	got, err := jpegc.Decode(bytes.NewReader(rec))
	if err != nil {
		return err
	}
	want, err := jpegc.Decode(bytes.NewReader(in.expected))
	if err != nil {
		return err
	}
	differ := func(r core.ROI) (diff, total int) {
		c, w := &got.Comps[0], &want.Comps[0]
		for by := r.Y / 8; by < (r.Y+r.H)/8; by++ {
			for bx := r.X / 8; bx < (r.X+r.W)/8; bx++ {
				total++
				if *c.Block(bx, by) != *w.Block(bx, by) {
					diff++
				}
			}
		}
		return diff, total
	}
	if d, n := differ(p.Regions[0]); 2*d <= n {
		return fmt.Errorf("share: unkeyed region recovered: %d of %d blocks differ from plaintext", d, n)
	}
	for _, r := range p.Regions[1:] {
		if d, n := differ(r); d != 0 {
			return fmt.Errorf("share: keyed region %+v not exact: %d of %d blocks differ", r, d, n)
		}
	}
	return nil
}

// shareFacade is one untraced op: the puppies facade end to end.
func shareFacade(in *shareInput) (prot *puppies.Protected, rec []byte, err error) {
	prot, err = puppies.Protect(in.std, puppies.ProtectOptions{Variant: puppies.VariantZ, Regions: in.regions, Keys: in.keys})
	if err != nil {
		return nil, nil, err
	}
	rec, err = puppies.UnprotectJPEG(prot.JPEG, prot.Params, in.keys)
	return prot, rec, err
}

// Share-chain layers, in call order.
const (
	layImport = iota
	layFromPlanar
	layAlign
	layEncrypt
	layEncode
	layParams
	layDecode
	layDecrypt
	layReencode
	nShareLayers
)

var shareLayerNames = [nShareLayers]string{
	"imgplane.import_ms", "jpegc.from_planar_ms", "roi.align_ms", "core.encrypt_ms",
	"jpegc.encode_ms", "core.params_ms", "jpegc.decode_ms", "core.decrypt_ms", "jpegc.reencode_ms",
}

// shareChain is the traced op: the same calls puppies.Protect and
// puppies.UnprotectJPEG make, one layer at a time, timing each call. The
// run compares its bytes with the facade's so the two cannot drift apart.
func shareChain(in *shareInput, d *[nShareLayers]time.Duration) (jpeg, params, rec []byte, err error) {
	t := time.Now()
	lap := func(l int) {
		now := time.Now()
		d[l] += now.Sub(t)
		t = now
	}
	planar, err := imgplane.FromStdImage(in.std)
	if err != nil {
		return nil, nil, nil, err
	}
	lap(layImport)
	img, err := jpegc.FromPlanar(planar, jpegc.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	lap(layFromPlanar)
	aligned := make([]core.ROI, 0, len(in.regions))
	for _, r := range in.regions {
		a, err := r.AlignToBlocks(img.W, img.H)
		if err != nil {
			return nil, nil, nil, err
		}
		aligned = append(aligned, a)
	}
	aligned = roi.AlignAll(aligned, img.W, img.H)
	if len(aligned) != len(in.keys) {
		return nil, nil, nil, fmt.Errorf("share: %d keys for %d regions", len(in.keys), len(aligned))
	}
	lap(layAlign)
	cp, err := core.NewParams(core.VariantZ, core.LevelMedium)
	if err != nil {
		return nil, nil, nil, err
	}
	cp.Wrap = core.WrapRecorded
	scheme, err := core.NewScheme(cp)
	if err != nil {
		return nil, nil, nil, err
	}
	assign := make([]core.RegionAssignment, len(aligned))
	for i, r := range aligned {
		assign[i] = core.RegionAssignment{ROI: r, Pair: in.keys[i]}
	}
	pd, _, err := scheme.EncryptImage(img, assign)
	if err != nil {
		return nil, nil, nil, err
	}
	lap(layEncrypt)
	var jb bytes.Buffer
	if err := img.Encode(&jb, scheme.EncodeOptions()); err != nil {
		return nil, nil, nil, err
	}
	lap(layEncode)
	params, err = pd.Encode()
	if err != nil {
		return nil, nil, nil, err
	}
	lap(layParams)

	got, err := jpegc.Decode(bytes.NewReader(jb.Bytes()))
	if err != nil {
		return nil, nil, nil, err
	}
	lap(layDecode)
	pd2, err := core.DecodePublicData(params)
	if err != nil {
		return nil, nil, nil, err
	}
	lap(layParams)
	byID := make(map[string]*keys.Pair, len(in.keys))
	for _, k := range in.keys {
		byID[k.ID] = k
	}
	if _, err := core.DecryptImage(got, pd2, byID); err != nil {
		return nil, nil, nil, err
	}
	lap(layDecrypt)
	var rb bytes.Buffer
	if err := got.Encode(&rb, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		return nil, nil, nil, err
	}
	lap(layReencode)
	return jb.Bytes(), params, rb.Bytes(), nil
}

// runShare is the share workload: one closed-loop sender+receiver. Traced
// runs alternate chain ops (even) with facade ops (odd) on the same input.
func runShare(cfg config) (*outcome, error) {
	traced := cfg.trace
	inputs, err := genShare(cfg.seed, cfg.sizes.shareRenders)
	if err != nil {
		return nil, err
	}
	o := &outcome{tailQ: 0.90}
	o.header = map[string]any{"share_size": fmt.Sprintf("%dx%d", dataset.Caltech.W, dataset.Caltech.H)}
	for i := 0; i < cfg.setups(); i++ {
		t := time.Now()
		err := setupShare(inputs)
		o.setup = append(o.setup, time.Since(t))
		if err != nil {
			o.problem("set-up: %v", err)
			break
		}
	}
	warmShare(inputs, cfg.sizes.warm)
	settle()

	pick := func(k int) *shareInput {
		r := splitmix(uint64(cfg.seed)*7919 + uint64(k))
		return inputs[r.intn(len(inputs))]
	}
	var layers [][nShareLayers]time.Duration
	var pairs [][2]float64 // (chain span sum, facade wall) per traced pair
	var lastChain *[3][]byte
	before := snapshot()
	samples := closedLoop(cfg.window, func(i int) sample {
		in := pick(i)
		if traced {
			in = pick(i / 2)
		}
		if traced && i%2 == 0 {
			var d [nShareLayers]time.Duration
			j, p, r, err := shareChain(in, &d)
			if err != nil {
				o.problem("chain: %v", err)
				return sample{traced: true}
			}
			layers = append(layers, d)
			lastChain = &[3][]byte{j, p, r}
			return sample{ok: bytes.Equal(r, in.expected), traced: true, bytes: len(j) + len(p)}
		}
		t := time.Now()
		prot, rec, err := shareFacade(in)
		wall := time.Since(t)
		if err != nil {
			o.problem("facade: %v", err)
			return sample{}
		}
		ok := bytes.Equal(rec, in.expected)
		if !ok {
			o.problem("recovered bytes differ from the plaintext encode")
		}
		if traced && lastChain != nil {
			c := lastChain
			lastChain = nil
			if !bytes.Equal(c[0], prot.JPEG) || !bytes.Equal(c[1], prot.Params) || !bytes.Equal(c[2], rec) {
				o.problem("traced chain output differs from the puppies facade")
				ok = false
			}
			var sum time.Duration
			for _, x := range layers[len(layers)-1] {
				sum += x
			}
			pairs = append(pairs, [2]float64{ms(sum), ms(wall)})
		}
		return sample{ok: ok, bytes: len(prot.JPEG) + len(prot.Params)}
	})
	after := snapshot()
	o.collect(samples, before, after)
	if traced {
		o.layers = map[string]float64{}
		for l := 0; l < nShareLayers; l++ {
			var xs []float64
			for _, d := range layers {
				xs = append(xs, ms(d[l]))
			}
			o.layers[shareLayerNames[l]] = median(xs)
		}
		var cover []float64
		for _, p := range pairs {
			cover = append(cover, 100*p[0]/p[1])
		}
		o.layers["trace.coverage_pct"] = median(cover)
		// A median over a handful of pairs is noise; smoke-sized runs only
		// report it.
		if len(cover) >= 20 && median(cover) < 95 {
			o.problem("chain spans cover %.1f%% of the facade's wall time, want >= 95%%", median(cover))
		}
	}
	return o, nil
}

// warmShare runs untimed facade ops so pools and the heap reach their
// steady size before the window.
func warmShare(inputs []*shareInput, d time.Duration) {
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		_, _, _ = shareFacade(inputs[i%len(inputs)]) // errors surface in the window
	}
}
