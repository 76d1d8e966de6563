package tuner

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

// committedStore is the store file the offline-search demo ships with.
const committedStore = "../../results/optdemo/collectionswitch-store.json"

// A profile no engine can observe — a negative, non-finite or absurdly large
// count, size or instance number — fails the whole file on both decode
// paths. A negative contains count once priced every lookup as a gain and
// steered the offline search to the worst lookup variant.
func TestStoreRejectsImpossibleProfiles(t *testing.T) {
	for _, c := range []struct {
		field string
		value any
	}{
		{"contains", -1e12},
		{"adds", -1},
		{"instances", -24},
		{"mean_size", -0.5},
		{"max_size", -200},
		{"iterates", 1e300},
	} {
		t.Run(c.field, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, StoreFileName)
			data, err := os.ReadFile(committedStore)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			mutateStoreFile(t, path, func(doc map[string]any) {
				site := doc["sites"].([]any)[0].(map[string]any)
				site["profile"].(map[string]any)[c.field] = c.value
			})
			_, err = ReadStore(path)
			if err == nil || !strings.Contains(err.Error(), "impossible profile: "+c.field) {
				t.Fatalf("ReadStore error = %v, want an impossible %s profile", err, c.field)
			}
			// Open applies the same decoder; the committed store was measured
			// elsewhere, so give the doctored copy this machine's fingerprint
			// to reach past the fingerprint check.
			mutateStoreFile(t, path, func(doc map[string]any) {
				doc["fingerprint"] = perfmodel.CollectFingerprint()
			})
			rejected(t, dir, "impossible profile: "+c.field)
		})
	}
}

// FuzzReadStore feeds arbitrary bytes to the store decoder both Open and
// ReadStore use. Every input must either fail or decode to site profiles
// the cost kernel prices finite and non-negative under the default models,
// evaluated the way the offline search evaluates them.
func FuzzReadStore(f *testing.F) {
	seed, err := os.ReadFile(committedStore)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":1,"sites":[{"name":"s","profile":{"adds":1,"contains":2,"instances":1,"mean_size":3,"max_size":4}}]}`))
	models := perfmodel.Default()
	variants := models.Variants()
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, _, err := decodeStore(data)
		if err != nil {
			return
		}
		for _, site := range doc.Sites {
			p := site.Profile
			mean := max(p.MeanSize, 1)
			u := perfmodel.Usage{
				Instances: max(float64(p.Instances), 1),
				Populate:  p.Adds / mean,
				Contains:  p.Contains,
				Iterate:   p.Iterates,
				Middle:    p.Middles,
			}
			for _, v := range variants {
				for _, dim := range perfmodel.Dimensions() {
					if _, _, missing := models.MissingCurve(v, []perfmodel.Dimension{dim}); missing {
						continue
					}
					size := mean
					if dim == perfmodel.DimFootprint {
						size = max(float64(p.MaxSize), mean)
					}
					cost, se, _ := models.WorkloadCostSE(v, dim, u, size)
					if !(cost >= 0 && se >= 0) || math.IsInf(cost, 0) || math.IsInf(se, 0) {
						t.Fatalf("site %q profile %+v: %s/%s cost %g se %g", site.Name, p, v, dim, cost, se)
					}
				}
			}
		}
	})
}
