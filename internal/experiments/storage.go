package experiments

import (
	"fmt"
	"math"

	"puppies/internal/core"
	"puppies/internal/dataset"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/p3"
	"puppies/internal/stats"
)

// perturbWhole encrypts the whole (block-aligned) image with the given
// scheme, returning the perturbed image and its public data.
func perturbWhole(base *jpegc.Image, params core.Params, seed int64) (*jpegc.Image, *core.PublicData, *keys.Pair, error) {
	sch, err := core.NewScheme(params)
	if err != nil {
		return nil, nil, nil, err
	}
	pair := keys.NewPairDeterministic(seed)
	img := base.Clone()
	x, y, w, h := wholeImageROI(base)
	pd, _, err := sch.EncryptImage(img, []core.RegionAssignment{
		{ROI: core.ROI{X: x, Y: y, W: w, H: h}, Pair: pair},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return img, pd, pair, nil
}

// perturbedSize is the encoded size of the image after perturbWhole, under
// the entropy-coding mode the scheme calls for.
func perturbedSize(base *jpegc.Image, params core.Params, seed int64) (int64, error) {
	sch, err := core.NewScheme(params)
	if err != nil {
		return 0, err
	}
	perturbed, _, _, err := perturbWhole(base, params, seed)
	if err != nil {
		return 0, err
	}
	return perturbed.EncodedSize(sch.EncodeOptions())
}

// Table2Row is one scheme's normalized whole-image perturbed size.
type Table2Row struct {
	Scheme  string
	Summary stats.Summary
}

// Table2 reproduces Table II: normalized perturbed-image size on the
// PASCAL-like corpus when the whole image is perturbed (worst case), for
// PuPPIeS-B (default Huffman tables), -C and -Z (optimized tables), at the
// medium privacy level.
func Table2(cfg Config) ([]Table2Row, *stats.Table, error) {
	corpus, err := cfg.corpus(dataset.PASCAL, cfg.PascalN)
	if err != nil {
		return nil, nil, err
	}
	variants := []core.Variant{core.VariantB, core.VariantC, core.VariantZ}
	ratios := map[core.Variant][]float64{}
	for i, ci := range corpus {
		origSize, err := ci.img.EncodedSize(jpegc.EncodeOptions{})
		if err != nil {
			return nil, nil, err
		}
		for _, v := range variants {
			size, err := perturbedSize(ci.img, core.Params{Variant: v, MR: 32, K: 8}, int64(1000+i))
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: %s on item %d: %w", v, i, err)
			}
			ratios[v] = append(ratios[v], float64(size)/float64(origSize))
		}
	}
	var rows []Table2Row
	tbl := &stats.Table{
		Title:   "Table II: normalized perturbed image size, PASCAL-like (whole image, medium privacy)",
		Columns: []string{"scheme", "mean", "median", "std", "min", "max"},
	}
	names := map[core.Variant]string{
		core.VariantB: "PuPPIeS-Base",
		core.VariantC: "PuPPIeS-Compression",
		core.VariantZ: "PuPPIeS-Zero",
	}
	for _, v := range variants {
		s, err := stats.Summarize(ratios[v])
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table2Row{Scheme: names[v], Summary: s})
		tbl.AddRow(names[v], s.Mean, s.Median, s.Std, s.Min, s.Max)
	}
	return rows, tbl, nil
}

// Table4Row maps a privacy level to its parameters and secure bits.
type Table4Row struct {
	Level          core.PrivacyLevel
	MR, K          int
	DCBits, ACBits int
	TotalBits      int
}

// Table4 reproduces Table IV plus the §VI-A secure-bit accounting.
func Table4() ([]Table4Row, *stats.Table, error) {
	var rows []Table4Row
	tbl := &stats.Table{
		Title:   "Table IV: privacy level -> parameters (+ computed secure bits)",
		Columns: []string{"level", "mR", "K", "DC bits", "AC bits", "total bits"},
	}
	for _, level := range []core.PrivacyLevel{core.LevelLow, core.LevelMedium, core.LevelHigh} {
		mR, k, err := core.LevelParams(level)
		if err != nil {
			return nil, nil, err
		}
		dc, ac, err := core.SecureBits(mR, k)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table4Row{Level: level, MR: mR, K: k, DCBits: dc, ACBits: ac, TotalBits: dc + ac})
		tbl.AddRow(string(level), mR, k, dc, ac, dc+ac)
	}
	return rows, tbl, nil
}

// Fig11Point is one point of the private-part size comparison.
type Fig11Point struct {
	Matrices     int
	PuppiesBytes int
}

// Fig11Result compares PuPPIeS private-part size (linear in the number of
// matrix pairs) with P3's private images (constant per dataset, large).
type Fig11Result struct {
	Points          []Fig11Point
	P3PascalMean    float64
	P3InriaMean     float64
	CrossoverPascal int // matrix pairs at which PuPPIeS exceeds P3 (PASCAL)
}

// Fig11 reproduces Fig. 11.
func Fig11(cfg Config) (*Fig11Result, *stats.Table, error) {
	res := &Fig11Result{}
	// The paper's x-axis counts single matrices (two per pair). The paper
	// plots 2..32 with a crossover against P3-PASCAL at 26; our synthetic
	// corpus yields a somewhat larger P3 private part (4:4:4 chroma, no
	// subsampling), so the axis extends until the crossover is visible.
	for n := 2; n <= 120; n += 2 {
		res.Points = append(res.Points, Fig11Point{
			Matrices:     n,
			PuppiesBytes: keys.PrivateSizeBytesMatrices(n),
		})
	}
	p3Mean := func(p dataset.Profile, override int) (float64, error) {
		corpus, err := cfg.corpus(p, override)
		if err != nil {
			return 0, err
		}
		var sizes []float64
		for _, ci := range corpus {
			split, err := p3.SplitImage(ci.img, p3.DefaultThreshold)
			if err != nil {
				return 0, err
			}
			_, priv, err := split.Sizes()
			if err != nil {
				return 0, err
			}
			sizes = append(sizes, float64(priv))
		}
		s, err := stats.Summarize(sizes)
		if err != nil {
			return 0, err
		}
		return s.Mean, nil
	}
	var err error
	if res.P3PascalMean, err = p3Mean(dataset.PASCAL, cfg.PascalN); err != nil {
		return nil, nil, err
	}
	if res.P3InriaMean, err = p3Mean(dataset.INRIA, cfg.InriaN); err != nil {
		return nil, nil, err
	}
	res.CrossoverPascal = -1
	for _, pt := range res.Points {
		if float64(pt.PuppiesBytes) > res.P3PascalMean {
			res.CrossoverPascal = pt.Matrices
			break
		}
	}

	tbl := &stats.Table{
		Title:   "Fig 11: private part size (bytes)",
		Columns: []string{"matrices", "PuPPIeS", "P3-PASCAL (mean)", "P3-INRIA (mean)"},
	}
	for _, pt := range res.Points {
		tbl.AddRow(pt.Matrices, pt.PuppiesBytes, res.P3PascalMean, res.P3InriaMean)
	}
	return res, tbl, nil
}

// Fig17Row is one (corpus, level, scheme) size measurement.
type Fig17Row struct {
	Corpus  string
	Level   core.PrivacyLevel
	Scheme  string
	Summary stats.Summary
}

// Fig17 reproduces Fig. 17: normalized whole-image perturbed size vs
// privacy level, for PuPPIeS-C and -Z on the PASCAL-like and INRIA-like
// corpora.
func Fig17(cfg Config) ([]Fig17Row, *stats.Table, error) {
	var rows []Fig17Row
	tbl := &stats.Table{
		Title:   "Fig 17: normalized perturbed size vs privacy level",
		Columns: []string{"corpus", "level", "scheme", "mean", "std"},
	}
	corpora := []struct {
		profile  dataset.Profile
		override int
	}{
		{dataset.PASCAL, cfg.PascalN},
		{dataset.INRIA, cfg.InriaN},
	}
	for _, c := range corpora {
		corpus, err := cfg.corpus(c.profile, c.override)
		if err != nil {
			return nil, nil, err
		}
		for _, level := range []core.PrivacyLevel{core.LevelLow, core.LevelMedium, core.LevelHigh} {
			mR, k, err := core.LevelParams(level)
			if err != nil {
				return nil, nil, err
			}
			for _, v := range []core.Variant{core.VariantC, core.VariantZ} {
				var ratios []float64
				for i, ci := range corpus {
					origSize, err := ci.img.EncodedSize(jpegc.EncodeOptions{})
					if err != nil {
						return nil, nil, err
					}
					size, err := perturbedSize(ci.img, core.Params{Variant: v, MR: mR, K: k}, int64(2000+i))
					if err != nil {
						return nil, nil, err
					}
					ratios = append(ratios, float64(size)/float64(origSize))
				}
				s, err := stats.Summarize(ratios)
				if err != nil {
					return nil, nil, err
				}
				name := "PuPPIeS-Compression"
				if v == core.VariantZ {
					name = "PuPPIeS-Zero"
				}
				rows = append(rows, Fig17Row{Corpus: c.profile.Name, Level: level, Scheme: name, Summary: s})
				tbl.AddRow(c.profile.Name, string(level), name, s.Mean, s.Std)
			}
		}
	}
	return rows, tbl, nil
}

// Fig18Row is one (scheme, ROI-percentage) public-part size measurement.
type Fig18Row struct {
	Scheme  string
	ROIPct  int
	Summary stats.Summary
}

// Fig18 reproduces Fig. 18: normalized public-part size (perturbed image +
// public parameters) as the ROI grows from 20% to 100% of the image, for
// PuPPIeS-C, -Z, -Z without ZInd, and P3 (whose public part is constant).
func Fig18(cfg Config) ([]Fig18Row, *stats.Table, error) {
	corpus, err := cfg.corpus(dataset.PASCAL, cfg.PascalN)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig18Row
	tbl := &stats.Table{
		Title:   "Fig 18: normalized public part size vs ROI area%",
		Columns: []string{"scheme", "roi%", "mean", "std"},
	}

	// P3 is whole-image and constant in ROI size.
	var p3Ratios []float64
	for _, ci := range corpus {
		origSize, err := ci.img.EncodedSize(jpegc.EncodeOptions{})
		if err != nil {
			return nil, nil, err
		}
		split, err := p3.SplitImage(ci.img, p3.DefaultThreshold)
		if err != nil {
			return nil, nil, err
		}
		pub, _, err := split.Sizes()
		if err != nil {
			return nil, nil, err
		}
		p3Ratios = append(p3Ratios, float64(pub)/float64(origSize))
	}
	p3Summary, err := stats.Summarize(p3Ratios)
	if err != nil {
		return nil, nil, err
	}

	for _, pct := range []int{20, 40, 60, 80, 100} {
		ratiosC := []float64{}
		ratiosZ := []float64{}
		ratiosZNoIdx := []float64{}
		for i, ci := range corpus {
			origSize, err := ci.img.EncodedSize(jpegc.EncodeOptions{})
			if err != nil {
				return nil, nil, err
			}
			roi, err := centeredROI(ci.img, pct)
			if err != nil {
				return nil, nil, err
			}
			for _, v := range []core.Variant{core.VariantC, core.VariantZ} {
				sch, err := core.NewScheme(core.Params{Variant: v, MR: 32, K: 8})
				if err != nil {
					return nil, nil, err
				}
				img := ci.img.Clone()
				pair := keys.NewPairDeterministic(int64(3000 + i))
				pd, _, err := sch.EncryptImage(img, []core.RegionAssignment{{ROI: roi, Pair: pair}})
				if err != nil {
					return nil, nil, err
				}
				size, err := img.EncodedSize(sch.EncodeOptions())
				if err != nil {
					return nil, nil, err
				}
				withParams := float64(size+int64(pd.ParamsSizeBytes())) / float64(origSize)
				switch v {
				case core.VariantC:
					ratiosC = append(ratiosC, withParams)
				case core.VariantZ:
					ratiosZ = append(ratiosZ, withParams)
					ratiosZNoIdx = append(ratiosZNoIdx, float64(size)/float64(origSize))
				}
			}
		}
		for _, e := range []struct {
			name    string
			samples []float64
		}{
			{"PuPPIeS-Compression", ratiosC},
			{"PuPPIeS-Zero", ratiosZ},
			{"PuPPIeS-Zero--no newZeroIndex", ratiosZNoIdx},
		} {
			s, err := stats.Summarize(e.samples)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig18Row{Scheme: e.name, ROIPct: pct, Summary: s})
			tbl.AddRow(e.name, pct, s.Mean, s.Std)
		}
		rows = append(rows, Fig18Row{Scheme: "P3", ROIPct: pct, Summary: p3Summary})
		tbl.AddRow("P3", pct, p3Summary.Mean, p3Summary.Std)
	}
	return rows, tbl, nil
}

// centeredROI returns a block-aligned centered rectangle covering
// approximately pct% of the image area.
func centeredROI(img *jpegc.Image, pct int) (core.ROI, error) {
	if pct <= 0 || pct > 100 {
		return core.ROI{}, fmt.Errorf("experiments: roi pct %d out of range", pct)
	}
	_, _, fullW, fullH := wholeImageROI(img)
	if pct == 100 {
		return core.ROI{X: 0, Y: 0, W: fullW, H: fullH}, nil
	}
	// Scale both dimensions by sqrt(pct/100).
	frac := math.Sqrt(float64(pct) / 100)
	w := int(float64(fullW) * frac)
	h := int(float64(fullH) * frac)
	w = (w / 8) * 8
	h = (h / 8) * 8
	if w < 8 {
		w = 8
	}
	if h < 8 {
		h = 8
	}
	x := ((fullW - w) / 16) * 8
	y := ((fullH - h) / 16) * 8
	return core.ROI{X: x, Y: y, W: w, H: h}, nil
}

// Fig19Result compares one image's public/private decomposition across
// schemes (the Fig. 19 example, quantified).
type Fig19Result struct {
	OriginalBytes       int64
	PuppiesPublicBytes  int64
	PuppiesParamsBytes  int
	PuppiesPrivateBytes int
	P3PublicBytes       int64
	P3PrivateBytes      int64
}

// Fig19 reproduces Fig. 19's decomposition on one PASCAL-like image with a
// centered 40% ROI for PuPPIeS-Z.
func Fig19(cfg Config) (*Fig19Result, *stats.Table, error) {
	gen, err := dataset.NewGenerator(dataset.PASCAL, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	item := gen.Item(1)
	base, err := jpegc.FromPlanar(item.Image, jpegc.Options{Quality: cfg.quality()})
	if err != nil {
		return nil, nil, err
	}
	res := &Fig19Result{}
	if res.OriginalBytes, err = base.EncodedSize(jpegc.EncodeOptions{}); err != nil {
		return nil, nil, err
	}

	roi, err := centeredROI(base, 40)
	if err != nil {
		return nil, nil, err
	}
	sch, err := core.NewScheme(core.Params{Variant: core.VariantZ, MR: 32, K: 8})
	if err != nil {
		return nil, nil, err
	}
	img := base.Clone()
	pair := keys.NewPairDeterministic(11)
	pd, _, err := sch.EncryptImage(img, []core.RegionAssignment{{ROI: roi, Pair: pair}})
	if err != nil {
		return nil, nil, err
	}
	if res.PuppiesPublicBytes, err = img.EncodedSize(sch.EncodeOptions()); err != nil {
		return nil, nil, err
	}
	res.PuppiesParamsBytes = pd.ParamsSizeBytes()
	res.PuppiesPrivateBytes = keys.PrivateSizeBytes(1)

	split, err := p3.SplitImage(base, p3.DefaultThreshold)
	if err != nil {
		return nil, nil, err
	}
	if res.P3PublicBytes, res.P3PrivateBytes, err = split.Sizes(); err != nil {
		return nil, nil, err
	}

	tbl := &stats.Table{
		Title:   "Fig 19: public/private decomposition of one image (bytes)",
		Columns: []string{"quantity", "PuPPIeS-Z", "P3"},
	}
	tbl.AddRow("original image", res.OriginalBytes, res.OriginalBytes)
	tbl.AddRow("public part", res.PuppiesPublicBytes, res.P3PublicBytes)
	tbl.AddRow("public parameters", res.PuppiesParamsBytes, 0)
	tbl.AddRow("private part", res.PuppiesPrivateBytes, res.P3PrivateBytes)
	return res, tbl, nil
}
