module Poly = Polysynth_poly.Poly

let p = Polysynth_poly.Parse.poly_exn

type t = {
  name : string;
  polys : Poly.t list;
  num_vars : int;
  degree : int;
  width : int;
}

let sg name window degree =
  {
    name;
    polys = Savitzky_golay.system ~window ~degree;
    num_vars = 2;
    degree;
    width = 16;
  }

(* Quadratic (Volterra) filter section after Mathews-Sicuranza: two output
   channels, each a full quadratic kernel in the two input samples; the
   symmetric kernels give the perfect-square structure such filters
   exhibit. *)
let quad =
  {
    name = "Quad";
    polys =
      [
        p "4*x^2 + 8*x*y + 4*y^2 + 5*x + 10*y + 3";
        p "6*x^2 + 12*x*y + 6*y^2 + 7*x - 7*y + 2";
      ];
    num_vars = 2;
    degree = 2;
    width = 16;
  }

(* MiBench automotive-style kernel (e.g. the quadratic smoothing/corner
   response of susan): two outputs over three 8-bit inputs. *)
let mibench =
  {
    name = "Mibench";
    polys =
      [
        p "2*x^2 + 4*x*y + 2*y^2 + 3*z^2 + 6*z + 3";
        p "4*x^2 + 4*x*z + z^2 + 5*y^2 + 10*y + 5";
      ];
    num_vars = 3;
    degree = 2;
    width = 8;
  }

(* Multivariate cosine wavelet (Hosangadi et al.): a scaled degree-3
   truncation of the modulated carrier sin(x + 2y), i.e.
   256*(x+2y)^3 - 1536*(x+2y) expanded. *)
let mvcs =
  {
    name = "MVCS";
    polys =
      [
        p "256*x^3 + 1536*x^2*y + 3072*x*y^2 + 2048*y^3 - 1536*x - 3072*y";
      ];
    num_vars = 2;
    degree = 3;
    width = 16;
  }

let all () =
  [
    sg "SG 3x2" 3 2;
    sg "SG 4x2" 4 2;
    sg "SG 4x3" 4 3;
    sg "SG 5x2" 5 2;
    sg "SG 5x3" 5 3;
    quad;
    mibench;
    mvcs;
  ]

let by_name name = List.find_opt (fun b -> b.name = name) (all ())
