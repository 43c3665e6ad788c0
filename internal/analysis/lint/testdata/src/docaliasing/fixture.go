// Golden fixture for the docaliasing analyzer, loaded as an internal/,
// cmd/ and examples/ package. Reads hand out shared read-only snapshots
// (stored documents, result-cache entries); mutating one without Copy()
// corrupts the store behind the journal's back or changes every other
// reader's result.
package fixture

import (
	"matproj/internal/cluster"
	"matproj/internal/datastore"
	"matproj/internal/document"
	"matproj/internal/queryengine"
)

func mutatesRanged(c *datastore.Collection) {
	docs, _ := c.FindAll(nil, nil)
	for _, d := range docs {
		d["flag"] = true // want `d aliases a document returned by a datastore/queryengine/cluster read`
	}
}

func mutatesSingle(c *datastore.Collection) {
	d, _ := c.FindID("mp-1")
	d.Set("flag", true) // want `d\.Set mutates a document returned by a read`
	delete(d, "flag")   // want `delete on d, which aliases a document`
}

func mutatesNested(c *datastore.Collection) {
	d, _ := c.FindID("mp-1")
	d.GetDoc("spectrum")["peak"] = 1.0 // want `d aliases a document`
}

func copiesFirst(c *datastore.Collection) document.D {
	d, _ := c.FindID("mp-1")
	d = d.Copy()
	d["flag"] = true // rebound through Copy: allowed
	return d
}

func freshDoc() {
	d := document.D{"a": 1}
	d["b"] = 2 // not from a read: allowed
}

func mutatesRouterGet(r *cluster.Router) {
	d, _ := r.Get("materials", "mp-1")
	d["flag"] = true // want `d aliases a document returned by a datastore/queryengine/cluster read`
}

func mutatesRoutedFind(r *cluster.Router) {
	docs, _ := r.C("materials").FindAll(nil, nil)
	docs[0].Set("flag", true) // want `docs\.Set mutates a document returned by a read`
}

func mutatesEngineFind(e *queryengine.Engine) {
	docs, _ := e.Find("user", "materials", nil, nil)
	for _, d := range docs {
		d.Unset("_id") // want `d\.Unset mutates a document returned by a read`
	}
}

func copiesRouted(r *cluster.Router) document.D {
	d, _ := r.Get("materials", "mp-1")
	d = d.Copy()
	d["flag"] = true // rebound through Copy: allowed
	return d
}
