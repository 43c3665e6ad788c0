package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
)

func doc(s string) document.D { return document.MustFromJSON(s) }

// newTestStore seeds the small materials corpus shared by the API tests.
func newTestStore(t *testing.T) *datastore.Store {
	t.Helper()
	store := datastore.MustOpenMemory()
	mats := store.C("materials")
	rows := []string{
		`{"_id": "mat-1", "pretty_formula": "Fe2O3", "final_energy": -8.1, "e_per_atom": -1.62, "band_gap": 2.1, "density": 5.2, "elements": ["Fe", "O"], "nelectrons": 76}`,
		`{"_id": "mat-2", "pretty_formula": "LiFePO4", "final_energy": -12.2, "e_per_atom": -1.74, "band_gap": 3.4, "density": 3.6, "elements": ["Li", "Fe", "P", "O"], "nelectrons": 78}`,
		`{"_id": "mat-3", "pretty_formula": "NaCl", "final_energy": -3.4, "e_per_atom": -1.7, "band_gap": 5.0, "density": 2.2, "elements": ["Cl", "Na"], "nelectrons": 28}`,
	}
	for _, r := range rows {
		if _, err := mats.Insert(doc(r)); err != nil {
			t.Fatal(err)
		}
	}
	store.C("bandstructures").Insert(doc(`{"material_id": "mat-1", "band_gap": 2.1, "bands": [[1, 2]]}`))
	store.C("xrd").Insert(doc(`{"material_id": "mat-1", "npeaks": 7}`))
	store.C("batteries").Insert(doc(`{"battery_id": "bat-1", "working_ion": "Li", "voltage": 3.4}`))
	store.C("batteries").Insert(doc(`{"battery_id": "bat-2", "working_ion": "Na", "voltage": 2.9}`))
	return store
}

func newTestEngine(store *datastore.Store, opts ...queryengine.Option) *queryengine.Engine {
	return queryengine.New(store, opts...)
}

// testServer builds a server over a small materials corpus and returns
// it with a valid API key. With RESTAPI_BACKEND=routed in the
// environment (see TestMaterialsAPISuiteRouted) the corpus is served
// through a networked 2-shard cluster — wire transport, query router,
// replica per shard — instead of a local store; auth and status stay on
// the local store either way, matching the mpserve router role.
func testServer(t *testing.T, opts ...queryengine.Option) (*httptest.Server, string) {
	t.Helper()
	store := newTestStore(t)
	var eng *queryengine.Engine
	if os.Getenv("RESTAPI_BACKEND") == "routed" {
		eng = newRoutedEngine(t, store, opts...)
	} else {
		eng = newTestEngine(store, opts...)
	}
	auth := NewAuth(store)
	srv := httptest.NewServer(NewServer(eng, auth, store))
	t.Cleanup(srv.Close)

	key, err := auth.Signup("google", "alice@example.com")
	if err != nil {
		t.Fatal(err)
	}
	return srv, key
}

// get performs an authenticated GET and decodes the envelope.
func get(t *testing.T, srv *httptest.Server, key, path string) (int, apiResponse) {
	t.Helper()
	req, _ := http.NewRequest("GET", srv.URL+path, nil)
	if key != "" {
		req.Header.Set("X-API-KEY", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, env
}

func TestFig4URI(t *testing.T) {
	srv, key := testServer(t)
	// The exact URI anatomy from Fig. 4:
	// {preamble}/rest/{version}/materials/{application id}/{datatype}/{property}
	status, env := get(t, srv, key, "/rest/v1/materials/Fe2O3/vasp/energy")
	if status != http.StatusOK || !env.Valid {
		t.Fatalf("status=%d env=%+v", status, env)
	}
	if env.NResults != 1 {
		t.Fatalf("results = %d", env.NResults)
	}
	row := env.Response[0].(map[string]any)
	if row["energy"] != -8.1 {
		t.Errorf("energy = %v", row["energy"])
	}
	if row["material_id"] != "mat-1" {
		t.Errorf("material_id = %v", row["material_id"])
	}
}

func TestMaterialsByIDChemsysAndAll(t *testing.T) {
	srv, key := testServer(t)
	// By material id, all properties.
	status, env := get(t, srv, key, "/rest/v1/materials/mat-2/vasp/all")
	if status != 200 || env.NResults != 1 {
		t.Fatalf("by id: %d %+v", status, env)
	}
	row := env.Response[0].(map[string]any)
	if row["formula"] != "LiFePO4" || row["band_gap"] != 3.4 {
		t.Errorf("row = %v", row)
	}
	// Bare /vasp behaves like /vasp/all.
	status, env = get(t, srv, key, "/rest/v1/materials/mat-2/vasp")
	if status != 200 || env.NResults != 1 {
		t.Fatalf("bare vasp: %d", status)
	}
	// Chemical system search: subset semantics, so Li-Fe-P-O matches both
	// LiFePO4 and the Fe2O3 subsystem material.
	status, env = get(t, srv, key, "/rest/v1/materials/Li-Fe-P-O/vasp/band_gap")
	if status != 200 || env.NResults != 2 {
		t.Fatalf("chemsys: %d %+v", status, env)
	}
	// A narrower system excludes materials with outside elements.
	status, env = get(t, srv, key, "/rest/v1/materials/Fe-O/vasp/band_gap")
	if status != 200 || env.NResults != 1 {
		t.Fatalf("chemsys Fe-O: %d %+v", status, env)
	}
	// Formula normalization: user writes O3Fe2, we canonicalize to Fe2O3.
	status, env = get(t, srv, key, "/rest/v1/materials/O3Fe2/vasp/energy")
	if status != 200 || env.NResults != 1 {
		t.Errorf("normalized formula: %d %+v", status, env)
	}
}

func TestMaterialsErrors(t *testing.T) {
	srv, key := testServer(t)
	cases := []struct {
		path   string
		status int
	}{
		{"/rest/v1/materials/Fe2O3/vasp/energy", 200},
		{"/rest/v1/materials/UnknownF7/vasp/energy", 400}, // bad identifier
		{"/rest/v1/materials/KCl/vasp/energy", 404},       // valid formula, no data
		{"/rest/v1/materials/Fe2O3/vasp/bogus", 400},      // unknown property
		{"/rest/v1/materials/Fe2O3/notvasp/energy", 400},  // wrong datatype
		{"/rest/v1/materials/Li-Xx/vasp/energy", 400},     // bad chemsys
	}
	for _, c := range cases {
		status, _ := get(t, srv, key, c.path)
		if status != c.status {
			t.Errorf("%s: status = %d, want %d", c.path, status, c.status)
		}
	}
}

func TestAuthRequired(t *testing.T) {
	srv, _ := testServer(t)
	status, env := get(t, srv, "", "/rest/v1/materials/Fe2O3/vasp/energy")
	if status != http.StatusUnauthorized || env.Valid {
		t.Errorf("status=%d env=%+v", status, env)
	}
	status, _ = get(t, srv, "wrong-key", "/rest/v1/materials/Fe2O3/vasp/energy")
	if status != http.StatusUnauthorized {
		t.Errorf("bad key status = %d", status)
	}
	// Key in query parameter also works.
	srv2, key := testServer(t)
	resp, err := http.Get(srv2.URL + "/rest/v1/materials/Fe2O3/vasp/energy?API_KEY=" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("query-param key status = %d", resp.StatusCode)
	}
}

func TestSignupDelegation(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/auth/signup?provider=google&email=bob@example.com", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var env apiResponse
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if !env.Valid || env.NResults != 1 {
		t.Fatalf("env = %+v", env)
	}
	key := env.Response[0].(map[string]any)["api_key"].(string)
	if !strings.HasPrefix(key, "mp-") {
		t.Errorf("key = %q", key)
	}
	// Idempotent: same email returns the same key.
	resp2, _ := http.Post(srv.URL+"/auth/signup?provider=yahoo&email=bob@example.com", "", nil)
	var env2 apiResponse
	json.NewDecoder(resp2.Body).Decode(&env2)
	resp2.Body.Close()
	if env2.Response[0].(map[string]any)["api_key"] != key {
		t.Error("signup not idempotent")
	}
	// Untrusted provider rejected.
	resp3, _ := http.Post(srv.URL+"/auth/signup?provider=evilcorp&email=x@y.z", "", nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("untrusted provider status = %d", resp3.StatusCode)
	}
	resp3.Body.Close()
	// Missing email rejected.
	resp4, _ := http.Post(srv.URL+"/auth/signup?provider=google", "", nil)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("missing email status = %d", resp4.StatusCode)
	}
	resp4.Body.Close()
}

func TestQueryEndpointSanitized(t *testing.T) {
	srv, key := testServer(t)
	post := func(body string) (int, apiResponse) {
		req, _ := http.NewRequest("POST", srv.URL+"/rest/v1/query", strings.NewReader(body))
		req.Header.Set("X-API-KEY", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env apiResponse
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}
	status, env := post(`{"criteria": {"elements": {"$all": ["Li", "O"]}}, "properties": ["formula", "energy"]}`)
	if status != 200 || env.NResults != 1 {
		t.Fatalf("query: %d %+v", status, env)
	}
	row := env.Response[0].(map[string]any)
	if row["pretty_formula"] != "LiFePO4" {
		t.Errorf("row = %v", row)
	}
	if _, leaked := row["density"]; leaked {
		t.Error("projection ignored")
	}
	// $where is always denied by the engine (code injection guard).
	status, _ = post(`{"criteria": {"$where": "this.x"}}`)
	if status != http.StatusBadRequest {
		t.Errorf("$where status = %d", status)
	}
	// Limit respected.
	status, env = post(`{"criteria": {}, "limit": 2}`)
	if status != 200 || env.NResults != 2 {
		t.Errorf("limit: %d %+v", status, env)
	}
	// Malformed body.
	status, _ = post(`{nope`)
	if status != http.StatusBadRequest {
		t.Errorf("malformed status = %d", status)
	}
}

func TestDerivedCollections(t *testing.T) {
	srv, key := testServer(t)
	status, env := get(t, srv, key, "/rest/v1/bandstructure/mat-1")
	if status != 200 || env.NResults != 1 {
		t.Fatalf("bandstructure: %d %+v", status, env)
	}
	status, env = get(t, srv, key, "/rest/v1/xrd/mat-1")
	if status != 200 || env.NResults != 1 {
		t.Fatalf("xrd: %d", status)
	}
	status, _ = get(t, srv, key, "/rest/v1/xrd/mat-404")
	if status != http.StatusNotFound {
		t.Errorf("missing xrd status = %d", status)
	}
	status, _ = get(t, srv, key, "/rest/v1/bandstructure/")
	if status != http.StatusBadRequest {
		t.Errorf("empty id status = %d", status)
	}
}

func TestBatteriesEndpoint(t *testing.T) {
	srv, key := testServer(t)
	status, env := get(t, srv, key, "/rest/v1/batteries")
	if status != 200 || env.NResults != 2 {
		t.Fatalf("batteries: %d %+v", status, env)
	}
	status, env = get(t, srv, key, "/rest/v1/batteries?ion=Li")
	if status != 200 || env.NResults != 1 {
		t.Errorf("li filter: %d %+v", status, env)
	}
}

func TestRateLimitReturns429(t *testing.T) {
	srv, key := testServer(t, queryengine.WithRateLimit(3, time.Minute))
	var last int
	for i := 0; i < 5; i++ {
		last, _ = get(t, srv, key, "/rest/v1/materials/Fe2O3/vasp/energy")
	}
	if last != http.StatusTooManyRequests {
		t.Errorf("status after burst = %d, want 429", last)
	}
}

func TestResponseEnvelopeShape(t *testing.T) {
	srv, key := testServer(t)
	req, _ := http.NewRequest("GET", srv.URL+"/rest/v1/materials/Fe2O3/vasp/energy", nil)
	req.Header.Set("X-API-KEY", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %s", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"valid_response", "response", "num_results"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("envelope missing %s: %s", field, body)
		}
	}
}

func TestAuthLookup(t *testing.T) {
	store := datastore.MustOpenMemory()
	a := NewAuth(store)
	if _, ok := a.Lookup(""); ok {
		t.Error("empty key resolved")
	}
	key, err := a.Signup("google", "x@y.z")
	if err != nil {
		t.Fatal(err)
	}
	email, ok := a.Lookup(key)
	if !ok || email != "x@y.z" {
		t.Errorf("lookup = %q %v", email, ok)
	}
	// Keys are unique across users.
	key2, _ := a.Signup("yahoo", "other@y.z")
	if key2 == key {
		t.Error("key collision")
	}
	_ = fmt.Sprint()
}

func TestAggregateEndpoint(t *testing.T) {
	srv, key := testServer(t)
	post := func(body string) (int, apiResponse) {
		req, _ := http.NewRequest("POST", srv.URL+"/rest/v1/aggregate", strings.NewReader(body))
		req.Header.Set("X-API-KEY", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env apiResponse
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}
	status, env := post(`{"pipeline": [
		{"$unwind": "$elements"},
		{"$group": {"_id": "$elements", "n": {"$sum": 1}}},
		{"$sort": {"n": -1}},
		{"$limit": 2}
	]}`)
	if status != 200 || env.NResults != 2 {
		t.Fatalf("aggregate: %d %+v", status, env)
	}
	top := env.Response[0].(map[string]any)
	// Fe and O both occur twice in the 3-material corpus.
	if top["n"] != float64(2) {
		t.Errorf("top group = %v", top)
	}
	// Disallowed stage rejected.
	status, _ = post(`{"pipeline": [{"$merge": {"into": "x"}}]}`)
	if status != http.StatusBadRequest {
		t.Errorf("disallowed stage status = %d", status)
	}
	// Empty/garbage bodies rejected.
	status, _ = post(`{"pipeline": []}`)
	if status != http.StatusBadRequest {
		t.Errorf("empty pipeline status = %d", status)
	}
	status, _ = post(`{nope`)
	if status != http.StatusBadRequest {
		t.Errorf("garbage status = %d", status)
	}
}

// TestUnencodableResultIs500: a result the envelope cannot carry (a
// $group $sum overflowing to +Inf) must answer 500 with an error
// envelope, not 200 over an empty body.
func TestUnencodableResultIs500(t *testing.T) {
	srv, key := testServer(t)
	if status, env := postJSON(t, srv, key, "/rest/v1/insertMany",
		`{"docs": [{"pretty_formula": "Xx", "big": 1e308}, {"pretty_formula": "Xx", "big": 1e308}]}`); status != http.StatusOK {
		t.Fatalf("insertMany: %d %+v", status, env)
	}
	status, env := postJSON(t, srv, key, "/rest/v1/aggregate",
		`{"pipeline": [{"$match": {"pretty_formula": "Xx"}}, {"$group": {"_id": null, "s": {"$sum": "$big"}}}]}`)
	if status != http.StatusInternalServerError || env.Valid || !strings.Contains(env.Error, "unsupported value") {
		t.Fatalf("overflowing $sum: status=%d env=%+v, want 500 with an error envelope", status, env)
	}
}

// TestEnvelopeBytesMatchEncodingJSON pins the REST wire format: the
// codec-encoded envelope is byte for byte what json.Encoder wrote.
func TestEnvelopeBytesMatchEncodingJSON(t *testing.T) {
	for _, resp := range []apiResponse{
		{Valid: true, Response: []any{map[string]any(doc(`{"_id": "mat-1", "tags": ["<a&b>"], "e": -8.1e-7, "n": 3}`)), map[string]any{"matched": 2, "id": "x"}}, NResults: 2},
		{Valid: false, Error: "bad \u2028 input <x>", Response: []any{}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := resp.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("envelope bytes differ:\n got  %s\n want %s", got, want.Bytes())
		}
	}
}
