package repro.coverbench

import org.scalatest.funsuite.AnyFunSuite

class CoverDigestSpec extends AnyFunSuite {

  // Reference values: Python's hashlib.sha256 over struct.pack(">q", id)
  // for each id, first 16 hex digits.
  test("digest is SHA-256 over big-endian 8-byte ids") {
    assert(CoverDigest(Array(1L, -2L, 3L)) == "3d8a5c4aeb02e8c2")
    assert(CoverDigest(Array.empty[Long]) == "e3b0c44298fc1c14")
  }

  test("digest is order-sensitive") {
    assert(CoverDigest(Array(3L, -2L, 1L)) == "016ee639445ff110")
    assert(CoverDigest(Array(1L, -2L, 3L)) != CoverDigest(Array(3L, -2L, 1L)))
  }

  test("workload scaling keeps names and k, and shrinks sizes") {
    val w = Workload.byName("fringe-k5")
    val s = w.scaled(0.1)
    assert(s.name == w.name && s.k == 5 && s.n == math.round(w.n * 0.1))
    assert(intercept[IllegalArgumentException](Workload.byName("nope")).getMessage.contains("fringe-k5"))
  }
}
